"""Group-testing matrices from codes and designs.

Constructions (Reed-Solomon / BCH / explicit designs through the
Kautz-Singleton map), exact distance spectra with Krawtchouk and Hahn dual
transforms, false-positive probability bounds, and ground-truth
disjunctness measurement with a COMP decoder.
"""

from .bounds import (
    BoundReport,
    b_factor,
    best_even_ell,
    check_cor_conditions,
    eps_cw,
    eps_cw_l2,
    eps_cw_l2_exact,
    eps_cw_rosenthal,
    eps_nonbinary,
    eps_rs,
    hermitian_params,
    mu_bound,
    rs_feasible,
    suzuki_params,
)
from .codes import (
    BinaryMatrix,
    ConstantWeightCode,
    ParityCheckCode,
    QaryCode,
    bch_code,
    fixed_weight_subcode,
    kautz_singleton,
    load_design,
    read_code,
    read_design,
    read_matrix,
    rs_code,
    write_code,
    write_matrix,
)
from .errors import BudgetExceeded, DisjunctError, InputError
from .galois import Field
from .measure import (
    SimulationReport,
    Witness,
    clopper_pearson_interval,
    comp_decode,
    disjunct_t_guarantee,
    estimate_pa,
    exact_pa,
    is_t_disjunct,
    pairwise_relaxation_prob,
    run_tests,
    simulate_decoding,
    wilson_interval,
)
from .spectra import (
    CWSpectrum,
    DualSpectrum,
    HammingSpectrum,
    binomial_central_moment,
    central_moment_hamming,
    cw_central_moment,
    cw_spectrum,
    dual_spectrum_cw,
    dual_spectrum_hamming,
    eberlein,
    hahn,
    hamming_spectrum,
    hypergeometric_central_moment,
    krawtchouk,
    pless_power_moment,
    stirling2,
)

__version__ = "0.1.0"
