"""Tests for the storage-device latency models."""

import pytest

from repro.sim.storage import DeviceFailed, StorageDevice, StorageKind


def _write(env, device, size):
    done = {}

    def proc():
        try:
            yield device.write(size)
            done["at"] = env.now
        except IOError as error:
            done["error"] = error

    env.process(proc())
    env.run()
    return done


class TestLatency:
    def test_null_device_instantaneous(self, env):
        done = _write(env, StorageDevice(env, StorageKind.NULL), 1 << 30)
        assert done["at"] == 0.0

    def test_cloud_slower_than_local(self, env):
        local = StorageDevice(env, StorageKind.LOCAL_SSD).write_latency(16 << 20)
        cloud = StorageDevice(env, StorageKind.CLOUD_SSD).write_latency(16 << 20)
        assert cloud > 2 * local

    def test_cloud_checkpoint_near_paper_50ms(self, env):
        # The paper observed ~50 ms DPR checkpoints on Premium SSD.
        latency = StorageDevice(env, StorageKind.CLOUD_SSD).write_latency(16 << 20)
        assert 0.03 < latency < 0.08

    def test_size_scales_latency(self, env):
        device = StorageDevice(env, StorageKind.LOCAL_SSD)
        small = device.write_latency(1 << 10)
        large = device.write_latency(1 << 28)
        assert large > 10 * small

    def test_bytes_written_accounting(self, env):
        device = StorageDevice(env, StorageKind.LOCAL_SSD)
        _write(env, device, 1000)
        assert device.bytes_written == 1000
        assert device.writes_completed == 1


class TestFailure:
    def test_write_to_failed_device_errors(self, env):
        device = StorageDevice(env, StorageKind.LOCAL_SSD)
        device.fail()
        done = _write(env, device, 100)
        assert isinstance(done["error"], DeviceFailed)

    def test_crash_mid_write_errors(self, env):
        device = StorageDevice(env, StorageKind.CLOUD_SSD)

        def crash():
            yield 1e-3
            device.fail()

        env.process(crash())
        done = _write(env, device, 64 << 20)  # takes much longer than 1ms
        assert isinstance(done["error"], DeviceFailed)
        assert device.bytes_written == 0

    def test_repair_restores_service(self, env):
        device = StorageDevice(env, StorageKind.LOCAL_SSD)
        device.fail()
        device.repair()
        done = _write(env, device, 100)
        assert "at" in done


class TestRead:
    def test_read_completes(self, env):
        device = StorageDevice(env, StorageKind.LOCAL_SSD)
        done = {}

        def proc():
            yield device.read(1 << 20)
            done["at"] = env.now

        env.process(proc())
        env.run()
        assert done["at"] > 0

    def test_read_failed_device_errors(self, env):
        device = StorageDevice(env, StorageKind.LOCAL_SSD)
        device.fail()
        caught = []

        def proc():
            try:
                yield device.read(10)
            except DeviceFailed:
                caught.append(True)

        env.process(proc())
        env.run()
        assert caught == [True]
