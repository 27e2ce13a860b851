"""Random walks on the Gegenbauer polynomial hypergroup.

Exact n-step kernels via the generalized convolution carried by Gegenbauer
polynomials, Monte Carlo local-time simulation, and checks of the local
limit theorems and Mittag-Leffler local-time limit laws.
"""

from gegwalk.errors import ConsistencyError, GegwalkError, StateCapError
from gegwalk.gegenbauer import (
    HypergroupIndex,
    LinearizationRow,
    linearization,
    weight,
)
from gegwalk.hypergroup import (
    GegenbauerKernel,
    SparseMeasure,
    drift_constant,
    kernel_row,
    n_step,
    transition_probabilities,
)
from gegwalk.specfun import (
    MittagLefflerDist,
    bessel_j,
    gamma_fn,
    ml_density,
    ml_function,
    ml_moment,
    ml_sample,
)
from gegwalk.verify import (
    ReportRow,
    VerifyReport,
    check_llt,
    check_local_time_limit,
    ks_statistic,
    local_time_scale,
    local_time_scale_constant,
)
from gegwalk.walk_sim import (
    LocalTimeSamples,
    WalkConfig,
    local_time_counts,
    simulate_replica,
)

__version__ = "0.1.0"
