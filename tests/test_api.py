"""The public API: `catdamp.__all__` against its table.  A change that adds
or removes a public name updates the table here and says so in CHANGES.md."""

import catdamp

PUBLIC = (
    # catdamp.coherent
    "SuperpositionDensity", "SuperpositionState", "apply_loss", "beamsplitter",
    "canonicalize", "coherent_overlap", "density_from_pure", "density_spectrum",
    "density_trace", "is_hermitian", "normalize", "partial_trace", "state_inner",
    "state_norm", "tensor",
    # catdamp.logical
    "LogicalBasis", "make_basis", "mixture_weights", "project_to_qubits",
    "pure_bipartite_concurrence", "wootters_concurrence", "xstate_concurrence",
    # catdamp.formulas
    "ChannelParams", "cat_state", "concurrence_m", "concurrence_pure",
    "damped_concurrence_bound", "damped_state_projection", "ghz_damped_elements",
    "ghz_damped_projection", "ghz_state", "mode_ladder", "phase_flip_prob",
    "phase_flip_prob_m",
    "__version__",
)


def test_all_is_the_table():
    assert len(PUBLIC) == 35
    assert list(catdamp.__all__) == list(PUBLIC)


def test_every_public_name_resolves():
    for name in catdamp.__all__:
        assert getattr(catdamp, name) is not None, name
    namespace = {}
    exec("from catdamp import *", namespace)
    assert set(PUBLIC) <= set(namespace)
