"""Training memory: a steady-state step faults no pages in, and the heap setting is glibc-only."""

import os
import platform
import subprocess
import sys

import pytest

import cardiomotion
from cardiomotion.nn import tensor


# run in a fresh interpreter, so that the heap state earlier tests leave behind
# does not count; argv holds the source and test directories
_STEADY_STATE_SCRIPT = """
import os
import sys

sys.path[:0] = sys.argv[1:3]
from cardiomotion import phantom
from cardiomotion.geodesic import ShootingConfig
from cardiomotion.grid import Grid2
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.networks import RegistrationNet, UNetConfig
from cardiomotion.registration import RegistrationConfig, pair_stack, train_registration_network
from helpers import MinorFaults

# the benchmark's registration-net shapes: two 64x64 sequences of 8 frames,
# 10 shooting steps, base_channels 8
grid = Grid2(64, 64)
stacks = [pair_stack(phantom.generate(phantom.PhantomConfig(
    grid=grid, num_frames=8, contraction_amp=c, twist_amp=0.3, seed=s)).images)
    for s, c in ((1, 0.15), (2, 0.25))]
op = MetricOperator(grid, alpha=200.0, gamma=1.0, power=1)
cfg = RegistrationConfig(ShootingConfig(10, op), sigma=0.01, learning_rate=1e-3)
net = RegistrationNet(UNetConfig(in_channels=2, base_channels=8, latent_channels=8,
                                 num_down=2, time_embed_dim=16), seed=0)
train_registration_network(net, stacks, cfg, epochs=2, seed=0)
epochs = 5
with MinorFaults() as faults:
    train_registration_network(net, stacks, cfg, epochs=epochs, seed=1)
print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"), faults.count / (epochs * len(stacks)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
def test_steady_state_registration_training_faults_no_pages_in():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cardiomotion.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    # the child inherits this environment unchanged, BLAS thread count included
    proc = subprocess.run([sys.executable, "-c", _STEADY_STATE_SCRIPT, src, tests],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    threads, per_step = proc.stdout.split()[-2:]
    assert threads == os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    assert float(per_step) < 100, f"{float(per_step):.0f} minor page faults per step"


def test_heap_setting_is_a_no_op_off_glibc(monkeypatch):
    monkeypatch.setattr(tensor.platform, "libc_ver", lambda: ("musl", "1.2"))

    def no_library(name):
        raise AssertionError("loaded a C library off glibc")

    monkeypatch.setattr(tensor.ctypes, "CDLL", no_library)
    assert tensor._keep_heap_mapped() is None
