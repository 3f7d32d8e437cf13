"""Independent reference implementations used as test oracles.

Everything here is written as plain, slow, obviously-correct loops with no
reuse of the package's vectorized code paths. These stay frozen: when a
test disagrees with an oracle, the implementation is wrong. The batch-norm
loops read the package's one setting they share, `layers.BN_EPSILON`.
"""

import math

import numpy as np

from avtrait.layers import BN_EPSILON


def matmul_loops(a, b):
    M, K = a.shape
    K2, N = b.shape
    assert K == K2
    out = np.zeros((M, N), dtype=np.float64)
    for i in range(M):
        for j in range(N):
            acc = 0.0
            for k in range(K):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out


def conv2d_loops(x, w, b, stride, padding):
    """Direct 6-nested-loop cross-correlation with zero padding."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, O, Ho, Wo), dtype=np.float64)
    for bi in range(B):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for c in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                hh = i * sh - ph + u
                                ww = j * sw - pw + v
                                if 0 <= hh < H and 0 <= ww < W:
                                    acc += float(x[bi, c, hh, ww]) * float(w[o, c, u, v])
                    out[bi, o, i, j] = acc + float(b[o])
    return out


def conv1d_loops(x, w, b, stride, padding):
    B, C, L = x.shape
    O, _, k = w.shape
    Lo = (L + 2 * padding - k) // stride + 1
    out = np.zeros((B, O, Lo), dtype=np.float64)
    for bi in range(B):
        for o in range(O):
            for i in range(Lo):
                acc = 0.0
                for c in range(C):
                    for u in range(k):
                        p = i * stride - padding + u
                        if 0 <= p < L:
                            acc += float(x[bi, c, p]) * float(w[o, c, u])
                out[bi, o, i] = acc + float(b[o])
    return out


def batchnorm_train_loops(x, gamma, beta):
    """Per-channel scalar-loop normalization over (batch, spatial)."""
    B, C = x.shape[0], x.shape[1]
    spatial = int(np.prod(x.shape[2:])) if x.ndim > 2 else 1
    xr = x.reshape(B, C, spatial).astype(np.float64)
    out = np.zeros_like(xr)
    for c in range(C):
        vals = [float(xr[b, c, s]) for b in range(B) for s in range(spatial)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        inv = 1.0 / math.sqrt(var + BN_EPSILON)
        for b in range(B):
            for s in range(spatial):
                out[b, c, s] = float(gamma[c]) * (xr[b, c, s] - mean) * inv + float(beta[c])
    return out.reshape(x.shape)


def batchnorm_eval_loops(x, state):
    """Eval-mode batch norm, channel by channel: gamma * (x - running_mean)
    / sqrt(running_var + BN_EPSILON) + beta from a BatchNormState's running
    statistics, which it does not change. Computed in float64 and returned
    in x's dtype."""
    out = np.empty(x.shape, np.float64)
    for c in range(x.shape[1]):
        inv = 1.0 / math.sqrt(float(state.running_var[c]) + BN_EPSILON)
        out[:, c] = float(state.gamma[c]) * (x[:, c] - float(state.running_mean[c])) * inv + float(state.beta[c])
    return out.astype(x.dtype)


def batchnorm_backward_three_term(xhat, inv_std, gamma, grad_out):
    """Train-mode batch-norm input gradient through dxhat = gamma * g:
    inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) per channel,
    with the means over (batch, spatial). Returns (dgamma, dbeta, dx)."""
    axes = (0,) + tuple(range(2, grad_out.ndim))
    shape = (1, -1) + (1,) * (grad_out.ndim - 2)
    dxhat = grad_out * gamma.reshape(shape)
    mean_dxhat = dxhat.mean(axis=axes).reshape(shape)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes).reshape(shape)
    dx = inv_std.reshape(shape) * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return (grad_out * xhat).sum(axis=axes), grad_out.sum(axis=axes), dx


def maxpool1d_windows(x, kernel, stride, padding):
    """Explicit window scan with -inf padding."""
    B, C, L = x.shape
    Lo = (L + 2 * padding - kernel) // stride + 1
    out = np.zeros((B, C, Lo), dtype=np.float64)
    for b in range(B):
        for c in range(C):
            for i in range(Lo):
                best = -np.inf
                for u in range(kernel):
                    p = i * stride - padding + u
                    if 0 <= p < L:
                        best = max(best, float(x[b, c, p]))
                out[b, c, i] = best
    return out


def maxpool2d_windows(x, kernel, stride, padding):
    B, C, H, W = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, C, Ho, Wo), dtype=np.float64)
    for b in range(B):
        for c in range(C):
            for i in range(Ho):
                for j in range(Wo):
                    best = -np.inf
                    for u in range(kh):
                        for v in range(kw):
                            hh = i * sh - ph + u
                            ww = j * sw - pw + v
                            if 0 <= hh < H and 0 <= ww < W:
                                best = max(best, float(x[b, c, hh, ww]))
                    out[b, c, i, j] = best
    return out


def lstm_step_loops(x, h_prev, c_prev, wx, wh, b):
    """Scalar-loop LSTM step, gate order (input, forget, cell, output)."""
    B, D = x.shape
    H = h_prev.shape[1]

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = np.zeros((B, H), dtype=np.float64)
    c = np.zeros((B, H), dtype=np.float64)
    for bi in range(B):
        for j in range(H):
            zs = []
            for gate in range(4):
                col = gate * H + j
                acc = float(b[col])
                for d in range(D):
                    acc += float(x[bi, d]) * float(wx[d, col])
                for k in range(H):
                    acc += float(h_prev[bi, k]) * float(wh[k, col])
                zs.append(acc)
            i_g = sigmoid(zs[0])
            f_g = sigmoid(zs[1])
            g_g = math.tanh(zs[2])
            o_g = sigmoid(zs[3])
            c[bi, j] = f_g * float(c_prev[bi, j]) + i_g * g_g
            h[bi, j] = o_g * math.tanh(c[bi, j])
    return h, c


def rnn_backward_per_step(tape, grad_out, params):
    """Per-step BPTT over an `rnn_head.rnn_forward` tape.

    Every step forms its own weight-gradient outer products and adds them
    into the totals, layer 2 then layer 1. `rnn_head.rnn_backward` forms
    one product per segment instead, so the two differ only in summation
    order.
    """
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    hidden = params["rnn.l1.wh"].shape[0]
    dh1, dc1, dh2, dc2 = (np.zeros((1, hidden), dtype=grad_out.dtype) for _ in range(4))

    def step(cache, dh, dc, prefix):
        x, h_prev, c_prev, wx, wh, i, f, g, o, tc = cache
        dct = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate(
            [dct * g * i * (1.0 - i), dct * c_prev * f * (1.0 - f), dct * i * (1.0 - g * g), dh * tc * o * (1.0 - o)],
            axis=1,
        )
        grads[prefix + ".wx"] += x.T @ dz
        grads[prefix + ".wh"] += h_prev.T @ dz
        grads[prefix + ".b"] += dz.sum(axis=0)
        return dz @ wx.T, dz @ wh.T, dct * f

    for t in range(len(tape) - 1, -1, -1):
        cache1, mask1, cache2, mask2, (d2, w_out), y = tape[t]
        dz = grad_out[t : t + 1] * (2.0 * y * (1.0 - y))
        grads["rnn.out.w"] += d2.T @ dz
        grads["rnn.out.b"] += dz.sum(axis=0)
        dd2 = dz @ w_out.T
        dh2 = dh2 + (dd2 if mask2 is None else dd2 * mask2)
        dd1, dh2, dc2 = step(cache2, dh2, dc2, "rnn.l2")
        dh1 = dh1 + (dd1 if mask1 is None else dd1 * mask1)
        _, dh1, dc1 = step(cache1, dh1, dc1, "rnn.l1")
    return grads


def adam_scalar_reference(g_fn, theta0, steps, alpha, beta1, beta2, epsilon):
    """Pure-Python scalar Adam; g_fn maps theta -> gradient."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    trace = []
    for t in range(1, steps + 1):
        g = g_fn(theta)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - alpha * m_hat / (math.sqrt(v_hat) + epsilon)
        trace.append(theta)
    return theta, trace


def central_difference(f, x, h=1e-5):
    """Elementwise central finite differences of scalar f wrt array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def fd_rel_err(analytic, numeric, floor=1e-4):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), floor)))


def stride_trace(length, layers):
    """Apply the floor output-extent formula through (kernel, stride, pad) layers."""
    for k, s, p in layers:
        length = (length + 2 * p - k) // s + 1
    return length


def synth_audio(freq, phase2, phase3, sample_count, sample_rate):
    """The synthetic clip's three-sine waveform, as (1, S) float32."""
    t = np.arange(sample_count, dtype=np.float64) / sample_rate
    wave = (
        0.55 * np.sin(2.0 * math.pi * freq * t)
        + 0.30 * np.sin(2.0 * math.pi * 1.5 * freq * t + phase2)
        + 0.10 * np.sin(2.0 * math.pi * 2.3 * freq * t + phase3)
    )
    return wave.astype(np.float32).reshape(1, sample_count)


def synth_frames_whole_grid(
    base, theta, wobble_phase, frame_count, height, width, gradient_amplitude, wobble_amplitude
):
    """Every synthetic frame from one float64 pixel grid of the whole clip, cast to u8."""
    gy = (np.arange(height, dtype=np.float64) + 0.5) / height - 0.5
    gx = (np.arange(width, dtype=np.float64) + 0.5) / width - 0.5
    proj = math.cos(theta) * gx[None, :] + math.sin(theta) * gy[:, None]
    ts = np.arange(frame_count, dtype=np.float64)
    wobble = wobble_amplitude * np.sin(2.0 * math.pi * ts / max(frame_count, 1) + wobble_phase)
    pix = base[None, :, None, None] + gradient_amplitude * proj[None, None, :, :] + wobble[:, None, None, None]
    return np.clip(np.round(pix * 255.0), 0, 255).astype(np.uint8)


def channel_means_whole_grid(frames_u8):
    """Each channel's float64 mean over the float32 /255 values of every frame."""
    frames = np.divide(frames_u8, np.float32(255.0), dtype=np.float32)
    return [float(frames[:, c].mean(dtype=np.float64)) for c in range(3)]
