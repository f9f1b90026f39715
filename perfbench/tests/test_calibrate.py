from calibrate import REFERENCE_S, at_reference


def test_scaling_is_exact_arithmetic():
    assert at_reference(0.3, REFERENCE_S) == 0.3
    assert at_reference(0.3, 2 * REFERENCE_S) == 0.15
    assert at_reference(0.3, REFERENCE_S / 2) == 0.6
