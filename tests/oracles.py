"""Independent brute-force references, written directly from the
definitions with plain Python loops. These deliberately avoid the
library's code paths (and numpy reductions) so tests compare two
independent routes."""

import math
import statistics


def ref_median(vals):
    return statistics.median(vals)


def ref_mad(vals, m):
    return sum(abs(v - m) for v in vals) / len(vals)


def ref_normalize(vals, eps=1e-6):
    m = ref_median(vals)
    s = max(ref_mad(vals, m), eps)
    return [(v - m) / s for v in vals]


def ref_spatial_cells(valid, H, W, S):
    """cell id -> sorted linear indices, by the floor-proportional rule."""
    cells = {}
    for r in range(H):
        for c in range(W):
            if not valid[r][c]:
                continue
            key = ((r * S) // H, (c * S) // W)
            cells.setdefault(key, []).append(r * W + c)
    return [sorted(v) for _, v in sorted(cells.items())]


def ref_percentile_bins(values, valid, H, W, S):
    pixels = [(values[r][c], r * W + c)
              for r in range(H) for c in range(W) if valid[r][c]]
    pixels.sort()
    M = len(pixels)
    q, rem = divmod(M, S)
    sizes = [q + 1] * rem + [q] * (S - rem)
    out, pos = [], 0
    for n in sizes:
        if n:
            out.append(sorted(i for _, i in pixels[pos:pos + n]))
            pos += n
    return out


def ref_range_bins(values, valid, H, W, S):
    vals = [values[r][c] for r in range(H) for c in range(W) if valid[r][c]]
    lo, hi = min(vals), max(vals)
    bins = {}
    for r in range(H):
        for c in range(W):
            if not valid[r][c]:
                continue
            v = values[r][c]
            if hi == lo:
                b = 0
            else:
                b = min(int(math.floor((v - lo) / ((hi - lo) / S))), S - 1)
            bins.setdefault(b, []).append(r * W + c)
    return [sorted(v) for _, v in sorted(bins.items())]


def ref_partition(values, valid, H, W, kind, S):
    if kind == "spatial":
        return ref_spatial_cells(valid, H, W, S)
    if kind == "depth_percentile":
        return ref_percentile_bins(values, valid, H, W, S)
    if kind == "depth_range":
        return ref_range_bins(values, valid, H, W, S)
    raise ValueError(kind)


def ref_hdn_loss(pred, gt, pred_valid, gt_valid, H, W, kind, sizes,
                 eps=1e-6, min_context=2, gt_degenerate_skip=True):
    """Materialize every context, normalize by definition, average the
    per-pixel means over supervisable pixels."""
    joint = [[pred_valid[r][c] and gt_valid[r][c] for c in range(W)]
             for r in range(H)]
    per_pixel = {}  # linear index -> list of |residual|
    for S in sizes:
        for ctx in ref_partition(gt, gt_valid, H, W, kind, S):
            idx = [i for i in ctx if joint[i // W][i % W]]
            if len(idx) < min_context:
                continue
            gvals = [gt[i // W][i % W] for i in idx]
            gm = ref_median(gvals)
            if gt_degenerate_skip and ref_mad(gvals, gm) <= eps:
                continue
            pvals = [pred[i // W][i % W] for i in idx]
            gn = ref_normalize(gvals, eps)
            pn = ref_normalize(pvals, eps)
            for k, i in enumerate(idx):
                per_pixel.setdefault(i, []).append(abs(pn[k] - gn[k]))
    if not per_pixel:
        return None
    return sum(sum(terms) / len(terms) for terms in per_pixel.values()) / len(per_pixel)


def ref_ssi_loss(pred, gt, pred_valid, gt_valid, H, W, eps=1e-6):
    idx = [(r, c) for r in range(H) for c in range(W)
           if pred_valid[r][c] and gt_valid[r][c]]
    pn = ref_normalize([pred[r][c] for r, c in idx], eps)
    gn = ref_normalize([gt[r][c] for r, c in idx], eps)
    return sum(abs(a - b) for a, b in zip(pn, gn)) / len(idx)


def ref_hdn_gradient(pred, gt, pred_valid, gt_valid, H, W, kind, sizes,
                     eps=1e-6, min_context=2, gt_degenerate_skip=True):
    """d(loss)/d(pred) as an H x W list of lists, context by context:
    the median's rank selection and every sign() are held fixed, the
    median rank among tied pred values goes to the lower linear index,
    and residuals within 1e-12 of zero count as zero."""
    joint = [[pred_valid[r][c] and gt_valid[r][c] for c in range(W)]
             for r in range(H)]
    kept = []  # (member indices, normalized gt)
    for S in sizes:
        for ctx in ref_partition(gt, gt_valid, H, W, kind, S):
            idx = [i for i in ctx if joint[i // W][i % W]]
            if len(idx) < min_context:
                continue
            gvals = [gt[i // W][i % W] for i in idx]
            if gt_degenerate_skip and ref_mad(gvals, ref_median(gvals)) <= eps:
                continue
            kept.append((idx, ref_normalize(gvals, eps)))
    count = {}
    for idx, _ in kept:
        for i in idx:
            count[i] = count.get(i, 0) + 1
    if not count:
        return None
    m_used = len(count)

    def sign(x):
        return (x > 0) - (x < 0)

    grad = [[0.0] * W for _ in range(H)]
    for idx, gn in kept:
        d = [pred[i // W][i % W] for i in idx]
        n = len(d)
        m = ref_median(d)
        mad = ref_mad(d, m)
        s = max(mad, eps)
        dev = [v - m for v in d]
        ranked = sorted(range(n), key=lambda k: (d[k], idx[k]))
        e = [0.0] * n  # d median / d pred
        for k in {ranked[(n - 1) // 2], ranked[n // 2]}:
            e[k] = 1.0 if n % 2 else 0.5
        total_sign = sum(sign(x) for x in dev)
        ds = [(sign(dev[k]) - e[k] * total_sign) / n if mad > eps else 0.0
              for k in range(n)]  # d MAD / d pred
        ws = []
        for k, i in enumerate(idx):
            res = dev[k] / s - gn[k]
            ws.append((sign(res) if abs(res) > 1e-12 else 0) / (m_used * count[i]))
        A = sum(ws)
        B = sum(w * x for w, x in zip(ws, dev))
        for k, i in enumerate(idx):
            grad[i // W][i % W] += ws[k] / s - e[k] * A / s - ds[k] * B / s / s
    return grad
