"""Group-testing matrices from codes and designs.

Constructions (Reed-Solomon / BCH / explicit designs through the
Kautz-Singleton map), exact distance spectra with Krawtchouk and Hahn dual
transforms, false-positive probability bounds, and ground-truth
disjunctness measurement with a COMP decoder.  Callers import the
submodules (`codes`, `textio`, `spectra`, `bounds`, `measure`, ...); the
package itself names nothing else.
"""

__version__ = "0.1.0"
