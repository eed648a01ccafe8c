"""Reference-speed timing: the probes sample, then leave no trace behind."""

import signal
import time

import speed


def test_timed_returns_the_result_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    result, t = speed.timed(lambda: (time.sleep(0.35), 42)[1])
    assert result == 42
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # probes ran inside the call and were taken out of its time
    assert 0.0 < t.share < 1.0
    assert 0.3 < t.raw_s < 0.5
    assert t.scaled_s > 0.0


def test_timed_restores_the_alarm_when_the_call_raises():
    handler = signal.getsignal(signal.SIGALRM)

    def boom():
        raise ValueError("boom")

    try:
        speed.timed(boom)
    except ValueError:
        pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
