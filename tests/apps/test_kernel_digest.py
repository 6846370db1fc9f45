"""Pin the static stage's output over every test-instance configuration.

The golden-time and best-configuration checks pin what the simulator
makes of the kernels; these digests pin the kernels themselves.  For
every configuration of each application's ``test_instance()``:

* ``EXPECTED_KERNEL_DIGEST`` hashes the kernel name, grid, block and
  emitted PTX, so a fold the cleanup pipeline loses or gains — or a
  build shortcut that hands back a different kernel — changes it;
* ``EXPECTED_FINGERPRINT_DIGEST`` hashes the simulation fingerprint,
  which also covers ``repr`` of the effective ``SimConfig``: a change
  to the simulator's cost-model fields re-keys every fingerprint
  without touching a single kernel.

The two are separate so that a ``SimConfig`` change re-pins only the
fingerprint digest while the kernel digest proves no kernel moved.
Regenerate the kernel digest only for a change that is meant to alter
generated code, and say why in that change.
"""

import hashlib

from repro.apps import all_applications
from repro.ptx import emit_ptx
from repro.sim.fingerprint import kernel_fingerprint

EXPECTED_KERNEL_DIGEST = "cf9dc0d8fb54eb04d117f76dc428172259f2949c4c9da08d9100e6d16034c0ec"
EXPECTED_FINGERPRINT_DIGEST = "93d407acf26ce641ee4e0ee4d5a6da3f46adf1205419aa858cad9d4f587ac0d3"


def _kernel_record(app, config) -> str:
    kernel = app.kernel(config)
    return "\n".join((
        kernel.name,
        str(kernel.grid_dim),
        str(kernel.block_dim),
        emit_ptx(kernel),
    ))


def _fingerprint_record(app, config) -> str:
    return kernel_fingerprint(app.kernel(config),
                              app.effective_sim_config(config))


def static_stage_digest(record) -> str:
    digest = hashlib.sha256()
    for app in all_applications():
        small = app.test_instance()
        for config in small.space():
            line = f"{small.name}|{sorted(dict(config).items())}\n"
            line += record(small, config)
            digest.update(line.encode("utf-8"))
            digest.update(b"\x00")
    return digest.hexdigest()


def test_static_stage_output_is_pinned():
    assert static_stage_digest(_kernel_record) == EXPECTED_KERNEL_DIGEST


def test_fingerprints_are_pinned():
    assert (static_stage_digest(_fingerprint_record)
            == EXPECTED_FINGERPRINT_DIGEST)
