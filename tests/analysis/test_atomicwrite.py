"""Atomic-write checker: durable artifacts must land via temp + replace."""


class TestDirectWrites:
    def test_every_direct_write_shape_is_found(self, analyse):
        report = analyse("service/diskbad.py")
        assert len(report.findings) == 3
        assert {f.rule for f in report.findings} == {"atomic-write"}
        messages = "\n".join(f.message for f in report.findings)
        assert "open(path, mode=...w...)" in messages
        assert "savez_compressed" in messages
        assert ".write_text()" in messages
        for f in report.findings:
            assert "repro.utils.fileio.atomic_write" in f.message

    def test_atomic_callback_and_manual_replace_pass(self, analyse):
        report = analyse("service/diskgood.py")
        assert report.findings == []
        assert report.ok()

    def test_non_durable_modules_are_exempt(self, analyse):
        # segleak.py opens a file for writing, but repro.parallel.* is
        # not a durable-artifact module: only the lifecycle rule fires.
        report = analyse("parallel/segleak.py")
        assert not any(f.rule == "atomic-write" for f in report.findings)

    def test_native_kernel_loader_is_durable(self):
        # It builds into a per-user cache that concurrent processes share.
        from tools.analysis.checkers.atomicwrite import AtomicWriteChecker

        checker = AtomicWriteChecker()
        assert checker.applies_to("repro.raster._native")
        assert not checker.applies_to("repro.raster.splat")
