"""Pin the static stage's output over every test-instance configuration.

The golden-time and best-configuration checks pin what the simulator
makes of the kernels; this digest pins the kernels themselves.  For
every configuration of each application's ``test_instance()`` it hashes
the kernel name, grid, block, emitted PTX and simulation fingerprint,
so a fold the cleanup pipeline loses or gains — or a build shortcut
that hands back a different kernel — changes the digest.

``EXPECTED_DIGEST`` was computed before build sharing and indexed
invalidation went in; regenerate it only for a change that is meant to
alter generated code, and say why in that change.
"""

import hashlib

from repro.apps import all_applications
from repro.ptx import emit_ptx
from repro.sim.fingerprint import kernel_fingerprint

EXPECTED_DIGEST = "db8b74fc88a8936a3ed47c3d82d12095ea3990c74c18bb0619d111411dc89846"


def _kernel_record(app, config) -> str:
    kernel = app.kernel(config)
    return "\n".join((
        kernel.name,
        str(kernel.grid_dim),
        str(kernel.block_dim),
        emit_ptx(kernel),
        kernel_fingerprint(kernel, app.effective_sim_config(config)),
    ))


def static_stage_digest() -> str:
    digest = hashlib.sha256()
    for app in all_applications():
        small = app.test_instance()
        for config in small.space():
            record = f"{small.name}|{sorted(dict(config).items())}\n"
            record += _kernel_record(small, config)
            digest.update(record.encode("utf-8"))
            digest.update(b"\x00")
    return digest.hexdigest()


def test_static_stage_output_is_pinned():
    assert static_stage_digest() == EXPECTED_DIGEST
