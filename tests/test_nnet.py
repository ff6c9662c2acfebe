import re
import struct
import tracemalloc

import numpy as np
import pytest

from mosdistill import nnet, pipeline
from mosdistill.errors import FormatError, NonFiniteLoss, ShapeMismatch
from mosdistill.verify import (
    check_conv_grad,
    check_dysample_grad,
    check_relu_grad,
    grad_error,
    finite_difference,
)
from mosdistill.synthbench import gen_sequence
from oracle_utils import (
    conv_grad_oracle,
    conv_oracle,
    dysample_input_grad_oracle,
    dysample_oracle,
)


# (kernel, stride) of every conv the networks build, and input shapes with
# odd and even sides, single rows and single pixels
CONV_KINDS = [(3, 1), (3, 2), (1, 1)]
CONV_SHAPES = [(4, 4), (5, 7), (7, 5), (1, 1), (1, 6), (2, 2)]


def _conv_with_bias(rng, kernel, stride):
    layer = nnet.Conv2d(3, 4, kernel=kernel, stride=stride, rng=rng)
    layer.params["b"] = rng.normal(size=4)
    return layer


class TestConv2d:
    def test_identity_1x1_kernel(self, rng):
        layer = nnet.Conv2d(3, 3, rng, kernel=1)
        layer.params["w"] = np.eye(3).reshape(3, 3, 1, 1)
        x = rng.normal(size=(3, 4, 5))
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_zero_kernel_broadcasts_bias(self, rng):
        layer = nnet.Conv2d(2, 3, rng, kernel=3)
        layer.params["w"] = np.zeros((3, 2, 3, 3))
        layer.params["b"] = np.array([1.0, -2.0, 0.5])
        x = rng.normal(size=(2, 4, 4))
        y, _ = layer.forward(x)
        for c, b in enumerate(layer.params["b"]):
            assert (y[c] == b).all()

    @pytest.mark.parametrize("stride,kernel", [(1, 3), (2, 3), (1, 1)])
    def test_matches_six_loop_oracle(self, rng, stride, kernel):
        layer = nnet.Conv2d(1, 2, kernel=kernel, stride=stride, rng=rng)
        x = rng.normal(size=(1, 4, 4))
        y, _ = layer.forward(x)
        ref = conv_oracle(x, layer.params["w"], layer.params["b"], stride, layer.padding)
        np.testing.assert_allclose(y, ref, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", CONV_KINDS)
    @pytest.mark.parametrize("h,w", CONV_SHAPES)
    def test_forward_matches_oracle_over_shapes(self, rng, kernel, stride, h, w):
        layer = _conv_with_bias(rng, kernel, stride)
        x = rng.normal(size=(3, h, w))
        before = x.copy()
        y, _ = layer.forward(x)
        ref = conv_oracle(x, layer.params["w"], layer.params["b"], stride, layer.padding)
        np.testing.assert_array_equal(x, before)
        assert y.dtype == np.float64 and y.flags.c_contiguous
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)
        y32, _ = layer.forward(x.astype(np.float32))
        assert y32.dtype == np.float32 and y32.flags.c_contiguous
        np.testing.assert_allclose(y32, ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("kernel,stride", CONV_KINDS)
    @pytest.mark.parametrize("h,w", CONV_SHAPES)
    def test_backward_matches_scalar_oracle(self, rng, kernel, stride, h, w):
        layer = _conv_with_bias(rng, kernel, stride)
        x = rng.normal(size=(3, h, w))
        before = x.copy()
        y, cache = layer.forward(x)
        g = rng.normal(size=y.shape)
        gx, grads = layer.backward(g, cache)
        ref_gx, ref_gw = conv_grad_oracle(x, layer.params["w"], g, stride, layer.padding)
        np.testing.assert_array_equal(x, before)
        assert gx.dtype == np.float64 and gx.flags.c_contiguous
        np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["w"], ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["b"], g.sum(axis=(1, 2)), rtol=0, atol=1e-12)
        _, cache32 = layer.forward(x.astype(np.float32))
        gx32, _ = layer.backward(g.astype(np.float32), cache32)
        assert gx32.dtype == np.float32 and gx32.flags.c_contiguous
        np.testing.assert_allclose(gx32, ref_gx, rtol=0, atol=1e-5)

    def test_backward_finite_difference(self, rng):
        assert check_conv_grad(rng, 1, 3) < 1e-4
        assert check_conv_grad(rng, 2, 3) < 1e-4
        assert check_conv_grad(rng, 2, 3, (5, 7)) < 1e-4
        assert check_conv_grad(rng, 1, 1) < 1e-4

    def test_channel_mismatch(self, rng):
        layer = nnet.Conv2d(2, 3, rng)
        with pytest.raises(ShapeMismatch):
            layer.forward(rng.normal(size=(4, 4, 4)))


class TestReLU:
    def test_forward(self):
        layer = nnet.ReLU()
        y, _ = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(y, [[0.0, 2.0]])

    def test_backward_finite_difference(self, rng):
        assert check_relu_grad(rng) < 1e-4


class TestDySample:
    def test_zero_offsets_equal_bilinear(self, rng):
        for s in (2, 3):
            x = rng.normal(size=(3, 4, 6))
            layer = nnet.DySample(3, scale=s)
            y, _ = layer.forward(x)
            assert np.abs(y - nnet.bilinear_upsample(x, s)).max() < 1e-6

    def test_constant_input_constant_output(self, rng):
        layer = nnet.DySample(2, scale=2)
        layer.params["linear_w"] = rng.normal(0, 0.5, size=(8, 2))
        layer.params["linear_b"] = rng.normal(0, 0.5, size=8)
        x = np.full((2, 4, 4), 3.25)
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, 3.25, atol=1e-12)

    def test_matches_scalar_oracle(self, rng):
        layer = nnet.DySample(2, scale=2)
        layer.params["linear_w"] = rng.normal(0, 0.3, size=(8, 2))
        layer.params["linear_b"] = rng.normal(0, 0.3, size=8)
        x = rng.normal(size=(2, 3, 4))
        y, _ = layer.forward(x)
        ref = dysample_oracle(
            x, layer.params["linear_w"], layer.params["linear_b"], 2, nnet.DySample.OFFSET_FACTOR
        )
        # the in-place forward keeps the scalar formula's operation order
        np.testing.assert_array_equal(y, ref)

    def test_backward_finite_difference(self, rng):
        for _ in range(3):
            assert check_dysample_grad(rng) < 1e-4

    @pytest.mark.parametrize(
        "shape,scale",
        [((2, 3, 4), 2), ((3, 1, 4), 2), ((2, 3, 1), 3), ((1, 1, 1), 2), ((2, 2, 2), 3)],
    )
    def test_input_grad_equals_loop_oracle(self, rng, shape, scale):
        # bias-only offsets, wide enough that some positions clamp; zero
        # linear weights make the offset branch add exact zeros, so the bits
        # of gx depend on the scatter order alone
        c, h, w = shape
        layer = nnet.DySample(c, scale=scale)
        layer.params["linear_b"] = rng.normal(0.0, 4.0, size=2 * scale * scale)
        x = rng.normal(size=shape)
        _, _, free_y, free_x, _, _ = layer._positions(x)
        assert not (free_y.all() and free_x.all())
        gout = rng.normal(size=(c, h * scale, w * scale))
        _, cache = layer.forward(x)
        gx, _ = layer.backward(gout, cache)
        ref = dysample_input_grad_oracle(
            x, layer.params["linear_w"], layer.params["linear_b"], scale,
            nnet.DySample.OFFSET_FACTOR, gout,
        )
        np.testing.assert_array_equal(gx, ref)

    def test_input_grad_matches_loop_oracle_per_pixel_offsets(self, rng):
        layer = nnet.DySample(3, scale=2)
        layer.params["linear_w"] = rng.normal(0.0, 2.0, size=(8, 3))
        layer.params["linear_b"] = rng.normal(0.0, 2.0, size=8)
        # a non-C-contiguous input must scatter into the returned gradient
        x = np.asfortranarray(rng.normal(size=(3, 4, 5)))
        gout = rng.normal(size=(3, 8, 10))
        _, cache = layer.forward(x)
        gx, _ = layer.backward(gout, cache)
        ref = dysample_input_grad_oracle(
            x, layer.params["linear_w"], layer.params["linear_b"], 2,
            nnet.DySample.OFFSET_FACTOR, gout,
        )
        np.testing.assert_allclose(gx, ref, rtol=1e-12, atol=1e-12)

    def test_zero_offset_input_grad_is_bilinear_transpose(self, rng):
        # with a dead offset branch the backward pass is exactly the
        # adjoint of bilinear upsampling
        x = rng.normal(size=(1, 3, 3))
        layer = nnet.DySample(1, scale=2)
        _, cache = layer.forward(x)
        gout = rng.normal(size=(1, 6, 6))
        gx, _ = layer.backward(gout, cache)

        def value():
            return float((nnet.bilinear_upsample(x, 2) * gout).sum())

        np.testing.assert_allclose(gx, finite_difference(value, x), atol=1e-8)

    def test_constant_input_zero_offset_grads(self, rng):
        layer = nnet.DySample(2, scale=2)
        layer.params["linear_w"] = rng.normal(0, 0.2, size=(8, 2))
        layer.params["linear_b"] = rng.normal(0, 0.2, size=8)
        x = np.full((2, 4, 4), 1.5)
        _, cache = layer.forward(x)
        _, pgrads = layer.backward(rng.normal(size=(2, 8, 8)), cache)
        np.testing.assert_allclose(pgrads["linear_w"], 0.0, atol=1e-12)
        np.testing.assert_allclose(pgrads["linear_b"], 0.0, atol=1e-12)

    def test_offset_factor_default(self):
        assert nnet.DySample(4).OFFSET_FACTOR == 0.25

    def test_pixel_shuffle_round_trip(self, rng):
        x = rng.normal(size=(8, 3, 5))
        np.testing.assert_array_equal(
            nnet._pixel_unshuffle(nnet._pixel_shuffle(x, 2), 2), x
        )


class TestNetwork:
    def test_student_shapes(self, rng):
        net = nnet.build_network("student:base=8", seed=0)
        x = rng.normal(size=(1, 16, 36))
        y, _ = net.forward(x)
        assert y.shape == (4, 16, 36)

    def test_zero_weights_give_uniform_logits(self, rng):
        net = nnet.build_network("student:base=8", seed=0)
        for p in net.parameters().values():
            p[...] = 0.0
        y, _ = net.forward(rng.normal(size=(1, 16, 36)))
        assert (y == 0.0).all()  # softmax of zeros is uniform

    def test_deterministic_per_seed(self, rng):
        x = rng.normal(size=(1, 8, 8))
        a, _ = nnet.build_network("student:base=8", seed=7).forward(x)
        b, _ = nnet.build_network("student:base=8", seed=7).forward(x)
        np.testing.assert_array_equal(a, b)
        c, _ = nnet.build_network("student:base=8", seed=8).forward(x)
        assert not np.array_equal(a, c)

    def test_student_smaller_than_teacher(self):
        student = nnet.build_network("student:base=16")
        teach = nnet.build_network("teacher:base=32")
        def size(net):
            return sum(p.size for p in net.parameters().values())

        assert size(student) < size(teach)

    def test_full_backward_finite_difference(self, rng):
        # end-to-end chain rule on a tiny net; draws avoid dead relus by
        # checking magnitudes of the pre-activations
        net = nnet.build_network("student:base=2", seed=3)
        x = rng.normal(size=(1, 4, 4))
        r = rng.normal(size=(4, 4, 4))

        def value():
            return float((net.forward(x)[0] * r).sum())

        y, caches = net.forward(x)
        gx, pgrads = net.backward(r, caches)
        assert grad_error(gx, finite_difference(value, x)) < 1e-4
        for name in ("head.w", "enc0.b", "up0.linear_w"):
            arr = net.parameters()[name]
            assert grad_error(pgrads[name], finite_difference(value, arr)) < 1e-4

    def test_backward_consumes_the_caches(self, rng):
        net = nnet.build_network("student:base=2", seed=3)
        _, caches = net.forward(rng.normal(size=(1, 4, 4)))
        assert len(caches) == len(net.layers)
        net.backward(rng.normal(size=(4, 4, 4)), caches)
        assert caches == []

    def test_inference_forward_is_bit_equal_and_cache_free(self, rng):
        net = nnet.build_network("teacher:base=8", seed=5)
        x = rng.normal(size=(1, 16, 36))
        y_train, caches = net.forward(x)
        y_infer, no_caches = net.forward(x, train=False)
        assert len(caches) == len(net.layers)
        assert no_caches == []
        np.testing.assert_array_equal(y_infer, y_train)

    def test_inference_forward_peak_memory(self, rng):
        # tracemalloc counts numpy's allocations exactly, so the ratio of
        # the two peaks is a property of the code, not of the machine
        net = nnet.build_network("teacher:base=32", seed=0)
        x = rng.normal(size=(1, 16, 180))
        peaks = {}
        for train in (True, False):
            tracemalloc.start()
            try:
                net.forward(x, train=train)
                peaks[train] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] <= 0.7 * peaks[True]

    def test_bad_descriptor(self):
        with pytest.raises(FormatError):
            nnet.build_network("resnet:base=8")


def _dysample_with_offsets(rng, c=3, scale=2):
    layer = nnet.DySample(c, scale=scale)
    layer.params["linear_w"] = rng.normal(0.0, 0.5, size=(2 * scale * scale, c))
    layer.params["linear_b"] = rng.normal(0.0, 0.5, size=2 * scale * scale)
    return layer


LAYER_MAKERS = pytest.mark.parametrize(
    "make",
    [
        lambda rng: nnet.Conv2d(3, 4, kernel=3, stride=1, rng=rng),
        lambda rng: nnet.Conv2d(3, 4, kernel=3, stride=2, rng=rng),
        lambda rng: nnet.Conv2d(3, 4, kernel=1, rng=rng),
        lambda rng: nnet.ReLU(),
        _dysample_with_offsets,
    ],
    ids=["conv3", "conv3s2", "conv1", "relu", "dysample"],
)


class TestFloat32Forward:
    @LAYER_MAKERS
    def test_layer_follows_input_dtype(self, rng, make):
        layer = make(rng)
        x = rng.normal(size=(3, 6, 8))
        y64, _ = layer.forward(x)
        y32, _ = layer.forward(x.astype(np.float32))
        assert y64.dtype == np.float64
        assert y32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=0, atol=1e-5)
        for p in layer.params.values():
            assert p.dtype == np.float64

    @LAYER_MAKERS
    def test_float32_backward_within_1e5_of_float64(self, rng, make):
        # gradients of magnitude up to about 20; float32 rounding moved them
        # by at most 2e-6 when this was written
        layer = make(rng)
        x = rng.normal(size=(3, 6, 8))
        y64, cache64 = layer.forward(x)
        g = rng.normal(size=y64.shape)
        gx64, grads64 = layer.backward(g, cache64)
        _, cache32 = layer.forward(x.astype(np.float32))
        gx32, grads32 = layer.backward(g.astype(np.float32), cache32)
        assert gx32.dtype == np.float32
        np.testing.assert_allclose(gx32, gx64, rtol=0, atol=1e-5)
        assert grads32.keys() == grads64.keys()
        for name, g32 in grads32.items():
            assert g32.dtype == np.float32, name  # no float64 promotion inside
            np.testing.assert_allclose(g32, grads64[name], rtol=0, atol=1e-5, err_msg=name)

    def test_network_backward_returns_float64_parameter_gradients(self, rng):
        net = nnet.build_network("student:base=8", seed=5)
        for name, p in net.parameters().items():
            if name.endswith("linear_w"):
                p[...] = rng.normal(0.0, 0.1, size=p.shape)
        x = rng.normal(size=(1, 16, 36))
        y64, caches64 = net.forward(x)
        g = rng.normal(size=y64.shape)
        _, grads64 = net.backward(g, caches64)
        y32, caches32 = net.forward(x.astype(np.float32))
        assert y32.dtype == np.float32
        gx32, grads32 = net.backward(g, caches32)  # the float64 gradient, as from the loss
        assert gx32.dtype == np.float32 and caches32 == []
        assert grads32.keys() == net.parameters().keys()
        # gradients of magnitude up to about 50 moved by at most 3e-5
        for name, g32 in grads32.items():
            assert g32.dtype == np.float64, name
            np.testing.assert_allclose(g32, grads64[name], rtol=0, atol=1e-4, err_msg=name)

    def test_train_student_keeps_float64_master_weights(self, tiny_config, monkeypatch):
        samples = pipeline.build_samples(*gen_sequence(tiny_config.scene()), tiny_config)
        pipeline.attach_synth_teacher(samples, 10.0, 0.5, seed=0)
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        states = []
        step = nnet.SgdState.step

        def spy(state, params, grads):
            assert all(g.dtype == np.float64 for g in grads.values())
            states.append(state)
            step(state, params, grads)

        monkeypatch.setattr(nnet.SgdState, "step", spy)
        pipeline.train_student(net, samples, [], tiny_config, epochs=1)
        assert states
        params = net.parameters()
        assert params["up1.linear_w"].any()  # the offsets are live
        assert states[-1].velocity.keys() == params.keys()
        for name, p in params.items():
            assert p.dtype == np.float64, name
            assert states[-1].velocity[name].dtype == np.float64, name

    def test_teacher_forward_is_float32(self, rng):
        net = nnet.build_network("teacher:base=8", seed=5)
        for name, p in net.parameters().items():
            if name.endswith("linear_w"):  # nonzero offsets in both upsamplers
                p[...] = rng.normal(0.0, 0.1, size=p.shape)
        x = rng.normal(size=(1, 16, 36))
        y64, _ = net.forward(x, train=False)
        y32, _ = net.forward(x.astype(np.float32), train=False)
        assert y32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=0, atol=1e-5)

    def test_float32_peak_memory(self, rng):
        # the float32 forward's activations are half as wide
        net = nnet.build_network("teacher:base=32", seed=0)
        x64 = rng.normal(size=(1, 16, 180))
        x32 = x64.astype(np.float32)
        peaks = {}
        for x in (x64, x32):
            tracemalloc.start()
            try:
                net.forward(x, train=False)
                peaks[x.dtype] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[np.dtype(np.float32)] <= 0.6 * peaks[np.dtype(np.float64)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_sampling_position_raises(self, rng, dtype):
        layer = _dysample_with_offsets(rng)
        layer.params["linear_b"][0] = np.nan
        with pytest.raises(NonFiniteLoss, match="sampling positions"):
            layer.forward(rng.normal(size=(3, 4, 4)).astype(dtype))


class TestSgd:
    def test_no_grad_no_decay_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        state = nnet.SgdState(lr=0.1, weight_decay=0.0)
        state.step(params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])

    def test_two_step_hand_oracle(self):
        lr, mom, wd = 0.1, 0.9, 1e-4
        p0, g1, g2 = 2.0, 0.5, -0.25
        v1 = g1 + wd * p0
        p1 = p0 - lr * v1
        v2 = mom * v1 + g2 + wd * p1
        p2 = p1 - lr * v2

        params = {"w": np.array([p0])}
        state = nnet.SgdState(lr=lr, momentum=mom, weight_decay=wd)
        state.step(params, {"w": np.array([g1])})
        assert params["w"][0] == pytest.approx(p1, rel=1e-15)
        state.step(params, {"w": np.array([g2])})
        assert params["w"][0] == pytest.approx(p2, rel=1e-15)

    def test_lr_schedule(self):
        state = nnet.SgdState(lr=0.005, lr_decay=0.99)
        for _ in range(10):
            state.end_epoch()
        assert state.lr == pytest.approx(0.005 * 0.99**10, rel=1e-12)

    def test_shape_mismatch(self):
        state = nnet.SgdState()
        with pytest.raises(ShapeMismatch):
            state.step({"w": np.zeros(2)}, {"w": np.zeros(3)})


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path, rng):
        net = nnet.build_network("student:base=8", seed=5)
        path = tmp_path / "net.ckpt"
        nnet.save_checkpoint(path, net)
        first = path.read_bytes()
        loaded = nnet.load_checkpoint(path)
        assert loaded.descriptor == net.descriptor
        nnet.save_checkpoint(path, loaded)
        assert path.read_bytes() == first

    def test_values_are_float32_exact(self, tmp_path):
        net = nnet.build_network("student:base=8", seed=5)
        path = tmp_path / "net.ckpt"
        nnet.save_checkpoint(path, net)
        loaded = nnet.load_checkpoint(path)
        for name, arr in net.parameters().items():
            np.testing.assert_array_equal(
                loaded.parameters()[name], arr.astype(np.float32).astype(np.float64)
            )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            nnet.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        net = nnet.build_network("student:base=2", seed=0)
        path = tmp_path / "net.ckpt"
        nnet.save_checkpoint(path, net)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            nnet.load_checkpoint(path)

    def test_dims_past_the_file(self, tmp_path):
        # 2**32 - 1 squared overflows int64; the count must still exceed the file
        desc = b"student:base=2"
        path = tmp_path / "net.ckpt"
        path.write_bytes(
            nnet.CKPT_MAGIC + struct.pack("<HI", nnet.CKPT_VERSION, len(desc)) + desc
            + struct.pack("<2I", 1, 1) + b"w" + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1)
            + bytes(64)
        )
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated checkpoint$"):
            nnet.load_checkpoint(path)

    def test_old_multichannel_descriptor_names_the_file(self, tmp_path):
        net = nnet.build_network("student:base=2", seed=0)
        net.descriptor = "student:in=8,base=2"
        path = tmp_path / "net.ckpt"
        nnet.save_checkpoint(path, net)
        message = f"{path}: bad architecture descriptor 'student:in=8,base=2'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            nnet.load_checkpoint(path)

    def test_parameter_shape_mismatch_names_the_file(self, tmp_path):
        net = nnet.build_network("student:base=2", seed=0)
        dict(net.layers)["enc0"].params["w"] = np.zeros((2, 8, 3, 3))
        path = tmp_path / "net.ckpt"
        nnet.save_checkpoint(path, net)
        message = f"{path}: bad shape for parameter enc0.w"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            nnet.load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        net = nnet.build_network("student:base=2", seed=0)
        path = tmp_path / "net.ckpt"
        nnet.save_checkpoint(path, net)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            nnet.load_checkpoint(path)
