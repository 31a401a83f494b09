"""Optional native (C) forest-build and scoring kernel for the surrogate.

The pure-numpy tree builder in :mod:`repro.optimizers.forest` is exact but
dispatch-bound: one CART node costs ~30 small numpy calls, and at the
in-session observation counts (tens of rows) even the per-tree numpy table
prep and the per-node RNG callbacks of the earlier kernel dominated the
build.  This module compiles (with the system C compiler, on first use,
cached next to the package) a kernel that builds the *whole forest* in a
single C call, consuming the session's own PCG64 stream directly through
numpy's public ``bitgen_t`` C interface — no Python callbacks at all.

Bit-exactness contract (enforced by ``tests/test_forest.py`` and
``tests/test_determinism_pins.py``):

* RNG draws replicate numpy's ``Generator`` algorithms on the *same*
  underlying bit generator state, in build order:
  ``integers(0, n, size=n)`` is Lemire's bounded rejection on
  ``next_uint32`` (numpy's ``buffered_bounded_lemire_uint32``, including
  the no-draw shortcut for a single-value range),
  ``shuffle``/``permutation`` is Fisher–Yates with numpy's
  ``random_interval`` masked rejection (32-bit path below 2**32), and
  ``random()`` keys are ``(next_uint64 >> 11) * 2**-53`` in fill order.
  The Generator's stream position after a native fit is therefore
  byte-identical to the numpy builder's.
* every tree's stable presort is *derived* from one per-fit
  ``np.argsort(kind="stable")`` of the raw feature columns: the kernel
  ranks each column's values once per fit along that order (equal values
  share a rank, as do the NaNs numpy sorts last), and one counting sort
  per column and tree places each bootstrap position into its rank's
  bucket in ascending position order.  That is the unique stable
  permutation numpy would produce for the resampled column, and the
  sorted X and y tables fill in the same pass;
* float arithmetic replicates numpy ufunc loops operation-for-operation:
  sequential ``add.accumulate``, numpy's pairwise summation for
  ``add.reduce`` (mean/variance), IEEE ``+ - * /`` per element with FMA
  contraction disabled (``-ffp-contract=off``).  A split score is
  computed only where numpy's would survive the validity and
  random-key masks (a masked score is ``inf`` there, and scoring draws
  nothing, so the keys are drawn first), and the winner is numpy's
  argmin over the historical position-major order: the first minimum,
  and no split when a NaN is present;
* the split search's hot loops are branch-free: node rows are gathered
  and partitioned by storing every element and advancing the output
  cursor on a condition.  Each such loop's last store lands one slot past
  its output, on a slot that is dead at that point; ``_BuildWorkspace``
  sizes every region for it.  All regions share one buffer per type, so
  a sizing error would corrupt a neighbouring region without any
  sanitizer noticing — the native == numpy property in
  ``tests/test_forest.py`` is the check.

The same shared library exports one scoring pass,
``predict_mean_var_grouped``, behind every forest predict: groups — one
per forest, each passed by pointer to its own packed table — each score
their own candidate-row slab.  A group's rows go in blocks of 256, one
tree at a time: a frontier of live (row, node) pairs steps one level per
pass (``!(x <= threshold)`` sends NaN right, as the numpy frontier
does) and compacts without branches, so a pair stops at its leaf.  Each
row's leaf values and leaf variances are then reduced in tree order into
its ``(mean, var)``, replicating the numpy tail over the ``(n_trees,
n_rows)`` stacks byte for byte:

* a group of two or more rows sums from ``0.0`` in tree order (numpy's
  axis-0 reduction); a one-row group adds numpy's pairwise sum to
  ``0.0`` (its reduction runs along the trees);
* ``var = sum((v - mean)**2) / T + sum(w) / T`` under
  ``-ffp-contract=off``;
* the floor is ``1e-12``, and a NaN stays NaN, as ``np.maximum``
  leaves it.

The walk's frontier lives on the stack, and the leaf buffer and the
one-row reduction's buffer are two separate ``malloc`` calls, so the
sanitized build sees an overrun of any of them; the hypothesis property
``tests/test_forest.py::TestFusedPassProperty`` (native == numpy
fallback == per-tree reference) is the net for the bytes.  The pass
runs on its caller's thread, and the C source keeps no mutable static
state.

If no compiler is available, everything falls back to the numpy
implementation with one ``RuntimeWarning`` per process — results are
identical, only slower; ``REPRO_FOREST_KERNEL=0`` selects numpy without
a warning.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import subprocess
import tempfile
import threading
import warnings
from typing import Sequence

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* numpy's public bit-generator interface (numpy/random/bitgen.h): the
 * Python side passes the address of the Generator's bitgen_t, so every
 * draw below advances the very same PCG64 state the numpy builder would. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.integers(0, n): numpy's buffered_bounded_lemire_uint32 —
 * the 32-bit Lemire rejection path taken whenever the range fits in
 * uint32.  rng_excl is the exclusive range (= n); numpy draws nothing
 * for a single-value range. */
static uint32_t rng_lemire32(bitgen_t *bg, uint32_t rng_excl)
{
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (uint32_t)(-(int64_t)rng_excl) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Generator.shuffle's per-swap draw: numpy's random_interval masked
 * rejection (32-bit generator when max fits in uint32). */
static uint64_t rng_interval(bitgen_t *bg, uint64_t max)
{
    uint64_t mask = max, value;
    if (max == 0) return 0;
    mask |= mask >> 1; mask |= mask >> 2; mask |= mask >> 4;
    mask |= mask >> 8; mask |= mask >> 16; mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (bg->next_uint32(bg->state) & mask)) > max) ;
    } else {
        while ((value = (bg->next_uint64(bg->state) & mask)) > max) ;
    }
    return value;
}

/* Generator.permutation(d) == arange(d) + Generator.shuffle: Fisher-Yates
 * from the top, one random_interval draw per swap. */
static void rng_permutation(bitgen_t *bg, int64_t *out, int64_t d)
{
    for (int64_t i = 0; i < d; i++) out[i] = i;
    for (int64_t i = d - 1; i > 0; i--) {
        const uint64_t j = rng_interval(bg, (uint64_t)i);
        const int64_t tmp = out[i]; out[i] = out[j]; out[j] = tmp;
    }
}

/* Generator.random(out=buf): sequential next_double fill
 * ((next_uint64 >> 11) * 2**-53 inside the bit generator). */
static void rng_double_fill(bitgen_t *bg, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++) out[i] = bg->next_double(bg->state);
}

/* numpy's pairwise summation (umath loops), exactly: sequential below 8,
 * 8-accumulator unrolled blocks up to 128, then recursive halving with the
 * split rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    else if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

typedef struct {
    int64_t n, d, m, min_split, max_depth, n_thresholds, bootstrap;
    int64_t n_trees, cap_total;
    bitgen_t *bitgen;
    const double *x_t;       /* d*n original X, feature-major */
    const double *y;         /* n original targets */
    const int64_t *presort0; /* d*n stable presort of x_t (numpy, per fit) */
    int64_t *nodes4;         /* cap_total*4 packed (feature, thr-bits, l, r) */
    double *value;           /* cap_total */
    double *variance;        /* cap_total */
    int64_t *offsets;        /* n_trees: global root index per tree */
    double *ws_d;            /* double scratch, laid out per tree */
    int64_t *ws_i;           /* int64 scratch: per-fit ranks, then per tree */
    uint8_t *member;         /* n node-membership flags, zero between nodes */
} fparams_t;

/* Rank every column's values once per fit by walking its stable presort:
 * equal values share a rank (numpy's sort compares -0.0 == 0.0), and so
 * does the NaN tail, which numpy sorts last.  rank[j*n + r] is row r's
 * rank in column j; n_ranks[j] counts column j's ranks. */
static void rank_columns(const fparams_t *p, int64_t *rank, int64_t *n_ranks)
{
    const int64_t n = p->n;
    for (int64_t j = 0; j < p->d; j++) {
        const int64_t *ord = p->presort0 + j * n;
        const double *col = p->x_t + j * n;
        int64_t *rk = rank + j * n;
        double prev = col[ord[0]];
        int64_t k = 0;
        rk[ord[0]] = 0;
        for (int64_t i = 1; i < n; i++) {
            const double v = col[ord[i]];
            k += !(v == prev || (isnan(v) && isnan(prev)));
            rk[ord[i]] = k;
            prev = v;
        }
        n_ranks[j] = k + 1;
    }
}

static void store_node(int64_t *nodes4, double *value, double *variance,
                       int64_t g)
{
    int64_t *row = nodes4 + g * 4;
    row[0] = -1;
    row[1] = 0;  /* bits of threshold 0.0 */
    row[2] = -1;
    row[3] = -1;
    value[g] = 0.0;
    variance[g] = 0.0;
}

/* Build one tree into the packed global table starting at node ``base``.
 * Child indices are stored *global* (rebased), matching the packed
 * _ForestArrays layout directly.  Returns the node count, or -1 on
 * capacity overflow. */
static int64_t build_tree_packed(fparams_t *p, const int64_t *rank,
                                 const int64_t *n_ranks, int64_t *tables,
                                 int64_t base)
{
    const int64_t n = p->n, d = p->d, m = p->m;
    const int64_t min_split = p->min_split, max_depth = p->max_depth;
    const int64_t nt = p->n_thresholds;
    bitgen_t *bg = p->bitgen;
    uint8_t *member = p->member;

    /* --- workspace layout: _BuildWorkspace.ensure sizes both regions.
     * Several loops below store unconditionally and advance their cursor
     * on a condition; the trailing store of such a loop lands one slot
     * past its output, so that slot must belong to the same region and
     * be dead there (see each loop). */
    double *xsort = p->ws_d;            /* d*n X values, sorted/feature */
    double *ysort = xsort + d * n;      /* d*n y values, sorted/feature */
    double *yb = ysort + d * n;         /* n bootstrapped y */
    double *xs = yb + n;                /* m*n+1 node X rows */
    double *ys = xs + m * n + 1;        /* m*n+1 node y rows */
    double *cum = ys + m * n + 1;       /* n */
    double *cumsq = cum + n;            /* n */
    double *colbuf = cumsq + n;         /* n split-feature values */
    double *ybuf = colbuf + n;          /* n */
    double *prodbuf = ybuf + n;         /* n */
    double *slots = prodbuf + n;        /* nt smallest keys, ascending */
    double *keys = slots + nt;          /* (n-1)*m threshold keys */

    const int64_t depth_cap =
        max_depth < 0 ? 0 : (max_depth < n ? max_depth : n);
    int64_t *presort = tables;          /* d*n per-tree stable presort */
    int64_t *boot = presort + d * n;    /* n bootstrap row indices */
    int64_t *rb = boot + n;             /* n ranks of one column's rows */
    int64_t *hist = rb + n;             /* n+1 counting-sort cursors */
    int64_t *perm = hist + n + 1;       /* d feature permutation */
    int64_t *surv = perm + d;           /* n surviving split positions */
    int64_t *meta = surv + n;           /* stack: 5 per entry */
    int64_t *arena = meta + 5 * (depth_cap + 2);  /* member lists:
                                           n*(depth_cap+1)+1 */

    memset(member, 0, (size_t)n);

    /* --- per-tree tables --------------------------------------------- */
    if (p->bootstrap && n > 1) {
        /* rng.integers(0, n, size=n): n Lemire draws in fill order
         * (numpy draws nothing when the range holds a single value). */
        for (int64_t g = 0; g < n; g++)
            boot[g] = (int64_t)rng_lemire32(bg, (uint32_t)n);
    } else {
        for (int64_t g = 0; g < n; g++) boot[g] = g;
    }
    for (int64_t g = 0; g < n; g++) yb[g] = p->y[boot[g]];

    /* Every column's stable presort of this resample in one counting
     * sort over the per-fit ranks: positions go into their rank's bucket
     * in ascending order, so equal values keep position order and the
     * NaN tail comes last — exactly numpy's stable argsort of the
     * resampled column.  The sorted X and y tables fill in the same
     * pass. */
    for (int64_t j = 0; j < d; j++) {
        const int64_t *rk = rank + j * n;
        const int64_t nr = n_ranks[j];
        const double *xcol = p->x_t + j * n;
        int64_t *ord = presort + j * n;
        double *xdst = xsort + j * n, *ydst = ysort + j * n;
        memset(hist, 0, (size_t)(nr + 1) * sizeof(int64_t));
        for (int64_t g = 0; g < n; g++) {
            rb[g] = rk[boot[g]];
            hist[rb[g] + 1]++;
        }
        for (int64_t r = 1; r < nr; r++) hist[r] += hist[r - 1];
        for (int64_t g = 0; g < n; g++) {
            const int64_t q = hist[rb[g]]++;
            ord[q] = g;
            xdst[q] = xcol[boot[g]];
            ydst[q] = yb[g];
        }
    }

    /* --- pre-order DFS (identical to the historical recursion) ------- */
    int64_t n_nodes = 0;
    int64_t arena_top = n;
    for (int64_t i = 0; i < n; i++) arena[i] = i;
    int64_t sp = 0; /* meta stack: off, cnt, depth, parent, is_right */
    meta[0] = 0; meta[1] = n; meta[2] = 0; meta[3] = -1; meta[4] = 0;
    sp = 1;

    while (sp > 0) {
        sp--;
        const int64_t off = meta[sp * 5 + 0], cnt = meta[sp * 5 + 1];
        const int64_t depth = meta[sp * 5 + 2], parent = meta[sp * 5 + 3];
        const int64_t is_right = meta[sp * 5 + 4];
        const int64_t *idx = arena + off;

        if (base + n_nodes >= p->cap_total) return -1;
        const int64_t node = n_nodes++;
        const int64_t gnode = base + node;
        if (parent >= 0)
            p->nodes4[(base + parent) * 4 + (is_right ? 3 : 2)] = gnode;
        store_node(p->nodes4, p->value, p->variance, gnode);

        int split_found = 0;
        int64_t best_f = -1, n_left = 0;
        double best_t = 0.0;

        int try_split = depth < max_depth && cnt >= min_split;
        if (try_split) {
            /* ptp == 0 check: max/min are order-independent, NaN poisons */
            double mn = yb[idx[0]], mx = mn;
            int has_nan = 0;
            for (int64_t i = 0; i < cnt; i++) {
                const double v = yb[idx[i]];
                has_nan |= isnan(v);
                mn = v < mn ? v : mn;
                mx = v > mx ? v : mx;
            }
            if (!has_nan && mx - mn == 0.0) try_split = 0;
        }

        if (try_split) {
            rng_permutation(bg, perm, d);  /* rng.permutation(d) */

            /* The node's rows in each chosen feature's sorted order: store
             * every presorted row, advance past members only.  Row c's
             * trailing store lands on row c+1's first slot before row c+1
             * writes it, the last row's on its region's spare slot. */
            for (int64_t i = 0; i < cnt; i++) member[idx[i]] = 1;
            for (int64_t c = 0; c < m; c++) {
                const int64_t j = perm[c];
                const int64_t *ord = presort + j * n;
                const double *xo = xsort + j * n, *yo = ysort + j * n;
                double *xrow = xs + c * cnt, *yrow = ys + c * cnt;
                int64_t r = 0;
                for (int64_t g = 0; g < n; g++) {
                    xrow[r] = xo[g];
                    yrow[r] = yo[g];
                    r += member[ord[g]];
                }
            }
            for (int64_t i = 0; i < cnt; i++) member[idx[i]] = 0;

            int64_t n_valid = 0, max_row = 0;
            for (int64_t c = 0; c < m; c++) {
                const double *xrow = xs + c * cnt;
                int64_t rv = 0;
                for (int64_t q = 0; q + 1 < cnt; q++)
                    rv += xrow[q] < xrow[q + 1];
                n_valid += rv;
                max_row = rv > max_row ? rv : max_row;
            }

            if (n_valid > 0) {
                /* Keys first (scoring draws nothing, so the stream order
                 * is unchanged): drawn flat in the historical (n-1, m) C
                 * order, element (q, c) at q*m + c. */
                const int masked = n_valid > nt && max_row > nt;
                if (masked) rng_double_fill(bg, keys, (cnt - 1) * m);

                /* First minimum in position-major order over the
                 * positions that survive the mask: the lexicographic
                 * minimum of (score, q, c).  numpy's argmin returns a NaN
                 * first, and a NaN winner never splits. */
                const double nn = (double)cnt;
                double best = INFINITY;
                int64_t bq = INT64_MAX, bc = 0;
                int any_nan = 0;
                for (int64_t c = 0; c < m; c++) {
                    const double *xrow = xs + c * cnt;
                    const double *yrow = ys + c * cnt;
                    double kth = INFINITY;
                    if (masked) {
                        /* the nt-th smallest valid key, by bounded
                         * insertion into nt slots (INFINITY when fewer
                         * than nt positions are valid) */
                        for (int64_t k = 0; k < nt; k++) slots[k] = INFINITY;
                        for (int64_t q = 0; q + 1 < cnt; q++) {
                            const double kv = keys[q * m + c];
                            if (xrow[q] < xrow[q + 1] && kv < slots[nt - 1]) {
                                int64_t k = nt - 1;
                                while (k > 0 && slots[k - 1] > kv) {
                                    slots[k] = slots[k - 1];
                                    k--;
                                }
                                slots[k] = kv;
                            }
                        }
                        kth = slots[nt - 1];
                    }
                    /* one pass: the surviving positions (valid, and
                     * within the key mask when there is one) and the
                     * cumulative sums the scores read */
                    int64_t ns = 0;
                    double s = yrow[0], s2 = yrow[0] * yrow[0];
                    cum[0] = s;
                    cumsq[0] = s2;
                    for (int64_t q = 0; q + 1 < cnt; q++) {
                        surv[ns] = q;
                        ns += (xrow[q] < xrow[q + 1])
                            & (!masked || keys[q * m + c] <= kth);
                        const double yv = yrow[q + 1];
                        s = s + yv;
                        s2 = s2 + yv * yv;
                        cum[q + 1] = s;
                        cumsq[q + 1] = s2;
                    }
                    const double total = s, total_sq = s2;
                    for (int64_t k = 0; k < ns; k++) {
                        const int64_t q = surv[k];
                        const double kk = (double)(q + 1);
                        const double l = cumsq[q] - (cum[q] * cum[q]) / kk;
                        const double tc = total - cum[q];
                        const double r_ = (total_sq - cumsq[q])
                            - (tc * tc) / (nn - kk);
                        const double sc = l + r_;
                        any_nan |= isnan(sc);
                        if (sc < best || (sc == best && q < bq)) {
                            best = sc;
                            bq = q;
                            bc = c;
                        }
                    }
                }
                if (!any_nan && isfinite(best)) {
                    const int64_t f = perm[bc];
                    const double *xrow = xs + bc * cnt;
                    const double t = (xrow[bq] + xrow[bq + 1]) / 2.0;
                    const double *xcol = p->x_t + f * n;
                    for (int64_t i = 0; i < cnt; i++) {
                        colbuf[i] = xcol[boot[idx[i]]];
                        n_left += colbuf[i] <= t;
                    }
                    if (n_left != 0 && n_left != cnt) {
                        split_found = 1;
                        best_f = f;
                        best_t = t;
                    }
                }
            }
        }

        if (!split_found) {
            for (int64_t i = 0; i < cnt; i++) ybuf[i] = yb[idx[i]];
            const double mean = pairwise_sum(ybuf, cnt) / (double)cnt;
            for (int64_t i = 0; i < cnt; i++) {
                const double dv = ybuf[i] - mean;
                prodbuf[i] = dv * dv;
            }
            p->value[gnode] = mean;
            p->variance[gnode] = pairwise_sum(prodbuf, cnt) / (double)cnt;
        }
        else {
            int64_t *row = p->nodes4 + gnode * 4;
            double thr = best_t;
            row[0] = best_f;
            memcpy(&row[1], &thr, sizeof(double));
            /* Partition the node's rows, order kept, in two passes that
             * store every row and advance on its side.  The left pass's
             * trailing store lands on the right list's first slot before
             * the right pass writes it, the right pass's on the arena's
             * next free slot (its spare slot at the end). */
            int64_t *lw = arena + arena_top, *rw = lw + n_left;
            int64_t nl = 0, nr = 0;
            for (int64_t i = 0; i < cnt; i++) {
                lw[nl] = idx[i];
                nl += colbuf[i] <= best_t;
            }
            for (int64_t i = 0; i < cnt; i++) {
                rw[nr] = idx[i];
                nr += !(colbuf[i] <= best_t);
            }
            const int64_t loff = arena_top, roff = arena_top + nl;
            arena_top += cnt;
            /* push right first so the left subtree is built first */
            meta[sp * 5 + 0] = roff; meta[sp * 5 + 1] = nr;
            meta[sp * 5 + 2] = depth + 1; meta[sp * 5 + 3] = node;
            meta[sp * 5 + 4] = 1;
            sp++;
            meta[sp * 5 + 0] = loff; meta[sp * 5 + 1] = nl;
            meta[sp * 5 + 2] = depth + 1; meta[sp * 5 + 3] = node;
            meta[sp * 5 + 4] = 0;
            sp++;
        }
    }
    return n_nodes;
}

/* Build the whole forest: n_trees packed trees emitted back to back into
 * the global node table, RNG consumed tree by tree in the numpy builder's
 * order (bootstrap draw, then per-node permutation/threshold keys).
 * Returns the total node count, or -1 on capacity overflow. */
int64_t build_forest(fparams_t *p)
{
    int64_t *rank = p->ws_i;                 /* d*n, per fit */
    int64_t *n_ranks = rank + p->d * p->n;   /* d, per fit */
    rank_columns(p, rank, n_ranks);
    int64_t total = 0;
    for (int64_t t = 0; t < p->n_trees; t++) {
        p->offsets[t] = total;
        const int64_t cnt = build_tree_packed(p, rank, n_ranks,
                                              n_ranks + p->d, total);
        if (cnt < 0) return -1;
        total += cnt;
    }
    return total;
}

/* The packed node table: one 32-byte struct per node (one cache line
 * holds two), so each walk step touches one node line plus one x value. */
typedef struct {
    int64_t feature;   /* -1 for leaves */
    double threshold;
    int64_t child[2];  /* [left, right] */
} pnode_t;

/* One forest of a scoring pass: its own packed table (child indices
 * local to it, one root per tree) and the number of rows it scores. */
typedef struct {
    const pnode_t *nodes;
    const double *value;
    const double *variance;
    const int64_t *roots;
    int64_t n_trees;
    int64_t n_rows;
} fgroup_t;

/* Rows per block: each tree walks one block of rows at a time. */
enum { BLOCK_ROWS = 256 };

/* Walk one tree over a block of nb rows (x row-major, d columns) and
 * write each row's leaf into leaf[r].  The frontier holds the live
 * (row, node) pairs; every level steps each pair once, `!(x <= t)`
 * sending NaN right like the numpy frontier's `where(x <= t, l, r)`,
 * and compacts the frontier in place without branches: every pair is
 * stored, and the cursor advances only past pairs that are still
 * internal, so a pair stops at its leaf.  The cursor never passes the
 * pair being read, so no store overwrites an unread pair. */
static void walk_block(const pnode_t *nodes, int64_t root, const double *x,
                       int64_t nb, int64_t d, int64_t *leaf)
{
    int64_t node[BLOCK_ROWS], row[BLOCK_ROWS];
    for (int64_t r = 0; r < nb; r++) {
        leaf[r] = root;
        node[r] = root;
        row[r] = r;
    }
    int64_t live = nodes[root].feature >= 0 ? nb : 0;
    while (live > 0) {
        int64_t k = 0;
        for (int64_t j = 0; j < live; j++) {
            const pnode_t *pn = nodes + node[j];
            const int64_t r = row[j];
            const int64_t nx =
                pn->child[!(x[r * d + pn->feature] <= pn->threshold)];
            leaf[r] = nx;
            node[k] = nx;
            row[k] = r;
            k += nodes[nx].feature >= 0;
        }
        live = k;
    }
}

/* numpy's np.maximum(v, 1e-12): a NaN stays NaN. */
static double var_floor(double v)
{
    return v >= 1e-12 || isnan(v) ? v : 1e-12;
}

/* The scoring pass.  Group g scores its own row_counts-row slab of x
 * (slabs back to back, d columns) against its own table, and writes
 * each row's ensemble mean to mean[] and total variance to var[] (both
 * indexed by the row's position in x).  Each block of a group's rows
 * walks the group's trees in order, then reduces every row's leaf values
 * and variances in tree order, exactly as numpy's tail over the
 * (n_trees, n_rows) stacks does:
 *   mean = S(v) / T,  var = S((v - mean)^2) / T + S(w) / T,
 * floored at 1e-12, where S sums from 0.0 in tree order for a group of
 * two or more rows (numpy's axis-0 reduction), and is 0.0 plus numpy's
 * pairwise sum for a one-row group (its reduction then runs along the
 * trees).  leaf holds max_trees * BLOCK_ROWS indices and one_row
 * max_trees doubles.  Returns 0, or -1 when the scratch cannot be
 * allocated. */
int predict_mean_var_grouped(const fgroup_t *groups, int64_t n_groups,
                             int64_t d, const double *x, double *mean,
                             double *var)
{
    int64_t max_trees = 1;
    for (int64_t g = 0; g < n_groups; g++)
        if (groups[g].n_trees > max_trees) max_trees = groups[g].n_trees;
    int64_t *leaf = malloc(sizeof(int64_t) * (size_t)(max_trees * BLOCK_ROWS));
    double *one_row = malloc(sizeof(double) * (size_t)max_trees);
    if (leaf == NULL || one_row == NULL) {
        free(leaf);
        free(one_row);
        return -1;
    }
    for (int64_t g = 0; g < n_groups; g++) {
        const fgroup_t *grp = groups + g;
        const int64_t nt = grp->n_trees, nr = grp->n_rows;
        const double ntd = (double)nt;
        for (int64_t i0 = 0; i0 < nr; i0 += BLOCK_ROWS) {
            const int64_t nb = nr - i0 < BLOCK_ROWS ? nr - i0 : BLOCK_ROWS;
            for (int64_t t = 0; t < nt; t++)
                walk_block(grp->nodes, grp->roots[t], x + i0 * d, nb, d,
                           leaf + t * BLOCK_ROWS);
            if (nr == 1) {
                for (int64_t t = 0; t < nt; t++)
                    one_row[t] = grp->value[leaf[t * BLOCK_ROWS]];
                const double m = (0.0 + pairwise_sum(one_row, nt)) / ntd;
                for (int64_t t = 0; t < nt; t++) {
                    const double dv = one_row[t] - m;
                    one_row[t] = dv * dv;
                }
                const double v = (0.0 + pairwise_sum(one_row, nt)) / ntd;
                for (int64_t t = 0; t < nt; t++)
                    one_row[t] = grp->variance[leaf[t * BLOCK_ROWS]];
                const double w = (0.0 + pairwise_sum(one_row, nt)) / ntd;
                mean[i0] = m;
                var[i0] = var_floor(v + w);
                continue;
            }
            for (int64_t r = 0; r < nb; r++) {
                double s = 0.0, sq = 0.0, sw = 0.0;
                for (int64_t t = 0; t < nt; t++)
                    s += grp->value[leaf[t * BLOCK_ROWS + r]];
                const double m = s / ntd;
                for (int64_t t = 0; t < nt; t++) {
                    const double dv = grp->value[leaf[t * BLOCK_ROWS + r]] - m;
                    sq += dv * dv;
                }
                for (int64_t t = 0; t < nt; t++)
                    sw += grp->variance[leaf[t * BLOCK_ROWS + r]];
                mean[i0 + r] = m;
                var[i0 + r] = var_floor(sq / ntd + sw / ntd);
            }
        }
        x += nr * d;
        mean += nr;
        var += nr;
    }
    free(leaf);
    free(one_row);
    return 0;
}
"""


class _FParams(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("d", ctypes.c_int64),
        ("m", ctypes.c_int64),
        ("min_split", ctypes.c_int64),
        ("max_depth", ctypes.c_int64),
        ("n_thresholds", ctypes.c_int64),
        ("bootstrap", ctypes.c_int64),
        ("n_trees", ctypes.c_int64),
        ("cap_total", ctypes.c_int64),
        ("bitgen", ctypes.c_void_p),
        ("x_t", ctypes.c_void_p),
        ("y", ctypes.c_void_p),
        ("presort0", ctypes.c_void_p),
        ("nodes4", ctypes.c_void_p),
        ("value", ctypes.c_void_p),
        ("variance", ctypes.c_void_p),
        ("offsets", ctypes.c_void_p),
        ("ws_d", ctypes.c_void_p),
        ("ws_i", ctypes.c_void_p),
        ("member", ctypes.c_void_p),
    ]


_lib = None
_lib_failed = False
_lib_lock = threading.Lock()


#: Every build's code-generation flags.  ``-ffp-contract=off`` keeps each
#: ``a * b + c`` two roundings, as numpy's ufunc loops compute it.
_BUILD_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The kernel source must stay warning-clean: every build runs with
#: ``-Wall -Wextra -Werror``, and the CI lint job compiles the source with
#: gcc and clang under these flags (``tools/compile_forest_kernel.py``),
#: so a new warning fails CI even where the loader's first compiler
#: accepts it.
_STRICT_FLAGS = ("-Wall", "-Wextra", "-Werror")

#: Opt-in instrumented build (``REPRO_FOREST_KERNEL_SANITIZE=1``): ASan +
#: UBSan with no recovery, so any OOB access or UB in the kernel aborts
#: the test run instead of silently corrupting a forest.  Loading the
#: instrumented .so into a non-instrumented Python needs
#: ``LD_PRELOAD=$(cc -print-file-name=libasan.so)`` and (libasan's leak
#: checker can't reason about the interpreter) ``ASAN_OPTIONS=detect_leaks=0``.
_SANITIZE_FLAGS = (
    "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"
)


def _sanitize_requested() -> bool:
    return os.environ.get("REPRO_FOREST_KERNEL_SANITIZE", "0") == "1"


def _build_library() -> ctypes.CDLL | None:
    """Compile (once, cached by source hash) and load the kernel."""
    digest = hashlib.sha1(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = pathlib.Path(__file__).resolve().parent / "_native"
    flavor = "_san" if _sanitize_requested() else ""
    so_path = cache_dir / f"forest_kernel_{digest}{flavor}.so"
    if not so_path.exists():
        try:
            cache_dir.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory() as tmp:
                c_path = pathlib.Path(tmp) / "forest_kernel.c"
                # repro-lint: allow[atomic-write] reason=scratch file in a private TemporaryDirectory, published below via an atomic replace
                c_path.write_text(_C_SOURCE)
                tmp_so = pathlib.Path(tmp) / "forest_kernel.so"
                flags = [*_BUILD_FLAGS, *_STRICT_FLAGS]
                if _sanitize_requested():
                    flags += _SANITIZE_FLAGS
                for compiler in ("cc", "gcc", "clang"):
                    try:
                        result = subprocess.run(
                            [compiler, *flags, "-o", str(tmp_so), str(c_path)],
                            capture_output=True,
                        )
                    except OSError:  # not on PATH: try the next compiler
                        continue
                    if result.returncode == 0:
                        break
                else:
                    return None
                # Atomic publish via a caller-unique partial file so
                # concurrent builders (threads or processes) never load a
                # half-written library; losing the rename race is fine —
                # both sides produced identical bytes.
                fd, partial_name = tempfile.mkstemp(
                    dir=cache_dir, suffix=".tmp"
                )
                with os.fdopen(fd, "wb") as handle:
                    handle.write(tmp_so.read_bytes())
                pathlib.Path(partial_name).replace(so_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    lib.build_forest.restype = ctypes.c_int64
    lib.build_forest.argtypes = [ctypes.POINTER(_FParams)]
    lib.predict_mean_var_grouped.restype = ctypes.c_int
    lib.predict_mean_var_grouped.argtypes = [
        ctypes.c_void_p,  # groups (fgroup_t structs)
        ctypes.c_int64,   # n_groups
        ctypes.c_int64,   # d
        ctypes.c_void_p,  # x (the groups' row slabs, back to back)
        ctypes.c_void_p,  # mean
        ctypes.c_void_p,  # var
    ]
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, or ``None`` when disabled or unavailable.

    A kernel that fails to build or load warns once per process
    (``RuntimeWarning``): the numpy fallback gives the same results
    several times slower.  ``REPRO_FOREST_KERNEL=0`` asks for numpy and
    warns nothing.
    """
    # repro-lint: allow[module-state] reason=process-wide compiled-kernel cache; both rebinds happen under _lib_lock and the value is schedule-independent
    global _lib, _lib_failed
    if os.environ.get("REPRO_FOREST_KERNEL", "1") == "0":
        return None
    if _lib is None and not _lib_failed:
        # Serialize first-use compilation: fits called from several
        # threads must not race the build/publish or mark the kernel
        # failed because another thread was mid-compile.
        with _lib_lock:
            if _lib is None and not _lib_failed:
                _lib = _build_library()
                if _lib is None:
                    _lib_failed = True
                    warnings.warn(
                        "the native forest kernel could not be compiled or "
                        "loaded; forests fall back to numpy (same results, "
                        "several times slower)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return _lib


def kernel_available() -> bool:
    return load_kernel() is not None


def pack_nodes(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Interleave the node columns into the kernel's 32-byte ``pnode_t``
    layout: ``(feature, threshold-bits, left, right)`` per row of an
    ``(n_nodes, 4)`` int64 matrix (the threshold doubles are bit-cast, not
    converted)."""
    nodes = np.empty((len(feature), 4), dtype=np.int64)
    nodes[:, 0] = feature
    nodes[:, 1] = np.ascontiguousarray(threshold, dtype=float).view(np.int64)
    nodes[:, 2] = left
    nodes[:, 3] = right
    return nodes


def bitgen_address(rng: np.random.Generator) -> int:
    """Address of the Generator's ``bitgen_t`` struct (numpy's public
    C interface); the kernel draws through its function pointers, so the
    Python-side Generator sees the advanced stream afterwards."""
    return rng.bit_generator.ctypes.bit_generator.value


class _BuildWorkspace:
    """Reusable native-build buffers, grown on demand.

    Sweeps fit one forest per iteration on a matrix that gains one row
    each round; reusing (and geometrically growing) the scratch and
    output buffers turns ~10 allocations per fit into attribute reads.
    Cached per thread (`threading.local`) so fits called from different
    threads never share scratch.  ``params`` is the kernel's argument
    struct, its buffer pointers set whenever a buffer moves.
    """

    def __init__(self) -> None:
        self.params = _FParams()
        self.cap_total = -1
        self.n = -1
        self.ws_d_size = -1
        self.ws_i_size = -1

    def ensure(self, n: int, d: int, m: int, n_trees: int,
               max_depth: int, n_thresholds: int) -> None:
        """Grow every buffer to the layout ``build_tree_packed`` carves
        out of it for an ``n x d`` fit.  The kernel's unconditional stores
        rely on the exact spare slots counted here, and an overrun would
        land in the next region of the same buffer, where no sanitizer
        sees it."""
        if n_trees * (2 * n + 4) > self.cap_total:
            self.cap_total = max(n_trees * (2 * n + 4), 2 * self.cap_total)
            self.nodes4 = np.empty((self.cap_total, 4), dtype=np.int64)
            self.value = np.empty(self.cap_total, dtype=float)
            self.variance = np.empty(self.cap_total, dtype=float)
            self.params.cap_total = self.cap_total
            self.params.nodes4 = self.nodes4.ctypes.data
            self.params.value = self.value.ctypes.data
            self.params.variance = self.variance.ctypes.data
        ws_d_size = (
            2 * d * n             # xsort, ysort
            + n                   # yb
            + 2 * (m * n + 1)     # xs, ys (+1: the gather's spare slot)
            + 5 * n               # cum, cumsq, colbuf, ybuf, prodbuf
            + n_thresholds        # slots
            + (n - 1) * m         # keys
        )
        if ws_d_size > self.ws_d_size:
            self.ws_d_size = max(ws_d_size, 2 * self.ws_d_size)
            self.ws_d = np.empty(self.ws_d_size, dtype=float)
            self.params.ws_d = self.ws_d.ctypes.data
        depth_cap = min(max(max_depth, 0), n)
        ws_i_size = (
            d * n + d             # rank, n_ranks (per fit)
            + d * n               # presort
            + 2 * n               # boot, rb
            + n + 1               # hist
            + d                   # perm
            + n                   # surv
            + 5 * (depth_cap + 2)           # meta
            + n * (depth_cap + 1) + 1       # arena (+1: partition's spare)
        )
        if ws_i_size > self.ws_i_size:
            self.ws_i_size = max(ws_i_size, 2 * self.ws_i_size)
            self.ws_i = np.empty(self.ws_i_size, dtype=np.int64)
            self.params.ws_i = self.ws_i.ctypes.data
        if n > self.n:
            self.n = max(n, 2 * self.n)
            self.member = np.empty(self.n, dtype=np.uint8)
            self.params.member = self.member.ctypes.data


_workspaces = threading.local()


def _workspace() -> _BuildWorkspace:
    ws = getattr(_workspaces, "ws", None)
    if ws is None:
        ws = _workspaces.ws = _BuildWorkspace()
    return ws


def build_forest(
    lib: ctypes.CDLL,
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    n_trees: int,
    max_features: int,
    min_samples_split: int,
    max_depth: int,
    n_thresholds: int,
    bootstrap: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build ``n_trees`` packed trees in one native call.

    Returns ``(nodes4, value, variance, offsets)`` — the concatenated node
    table in the 32-byte ``pnode_t`` layout with child indices already
    rebased to the table, per-node leaf statistics, and each tree's root
    offset.  The RNG
    draws consume ``rng``'s underlying bit-generator stream exactly as
    the numpy builder's ``Generator`` calls would (same algorithms, same
    order), so trees and the final stream position are byte-identical to
    the fallback path.
    """
    X = np.asarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n, d = X.shape
    m = min(max_features, d)
    x_t = np.ascontiguousarray(X.T)
    # The one numpy stable presort per fit: the kernel derives every
    # bootstrap resample's stable order from it without re-sorting.
    presort0 = np.argsort(x_t, axis=1, kind="stable")

    ws = _workspace()
    ws.ensure(n, d, m, n_trees, max_depth, n_thresholds)
    offsets = np.empty(n_trees, dtype=np.int64)

    p = ws.params
    p.n, p.d, p.m = n, d, m
    p.min_split = min_samples_split
    p.max_depth = max_depth
    p.n_thresholds = n_thresholds
    p.bootstrap = int(bootstrap)
    p.n_trees = n_trees
    p.bitgen = bitgen_address(rng)
    p.x_t = x_t.ctypes.data
    p.y = y.ctypes.data
    p.presort0 = presort0.ctypes.data
    p.offsets = offsets.ctypes.data

    total = int(lib.build_forest(ctypes.byref(p)))
    if total < 0:
        raise RuntimeError("native forest build overflowed node capacity")
    return (
        ws.nodes4[:total].copy(),
        ws.value[:total].copy(),
        ws.variance[:total].copy(),
        offsets,
    )


def predict_mean_var_grouped(
    lib: ctypes.CDLL,
    tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    row_counts: Sequence[int],
    X: np.ndarray,
) -> np.ndarray:
    """Every row's ensemble mean and total variance, in one native pass.

    ``tables[g]`` is group ``g``'s own ``(nodes, value, variance, roots)``:
    a :func:`pack_nodes` table whose child indices point into it, the
    per-node leaf statistics, and one root index per tree.  Group ``g``
    scores rows ``[sum(row_counts[:g]), sum(row_counts[:g+1]))`` of
    ``X``, which must hold every column the group's trees split on (the
    caller checks).  Returns a ``(2, len(X))`` array, means then
    variances, byte-identical to the numpy tail over the group's leaf
    stacks.
    """
    X = np.ascontiguousarray(X, dtype=float)
    row_counts = [int(n) for n in row_counts]
    if len(tables) != len(row_counts) or sum(row_counts) != len(X):
        raise ValueError("tables, row_counts and X do not line up")
    # fgroup_t's six fields are all eight bytes wide, so one int64 row
    # per group is the struct; ``keep`` holds every array the kernel
    # reads until it returns.
    keep = []
    groups = np.empty((len(tables), 6), dtype=np.int64)
    for g, ((nodes, value, variance, roots), n_rows) in enumerate(
        zip(tables, row_counts)
    ):
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        value = np.ascontiguousarray(value, dtype=float)
        variance = np.ascontiguousarray(variance, dtype=float)
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        if (
            nodes.ndim != 2 or nodes.shape[1] != 4
            or len(value) != len(nodes) or len(variance) != len(nodes)
        ):
            raise ValueError("group table has inconsistent node arrays")
        keep += [nodes, value, variance, roots]
        groups[g] = (
            nodes.ctypes.data, value.ctypes.data, variance.ctypes.data,
            roots.ctypes.data, len(roots), n_rows,
        )
    out = np.empty((2, len(X)))
    status = lib.predict_mean_var_grouped(
        groups.ctypes.data, len(groups), X.shape[1], X.ctypes.data,
        out.ctypes.data, out[1].ctypes.data,
    )
    if status != 0:
        raise MemoryError("the forest kernel could not allocate its scratch")
    return out
