"""Optional compiled fast path for the columnar engine.

The columnar scheduler's per-cycle work is a few hundred numpy calls on
short arrays, so at the 8-replica bench scale it is *dispatch*-bound:
the arithmetic is trivial but every masked gather/scatter pays ~1µs of
interpreter and ufunc overhead.  This module removes that floor when a
C toolchain is present: the same flat int64/uint8/float64 state arrays
are handed to a small C kernel (built with the system ``cc`` and bound
through :mod:`ctypes`) that runs the identical
propose/resolve/commit/update cycle as plain loops.

The kernel is an *accelerator, not a second model*: it iterates ports,
buffers and PM columns in exactly the order the vectorized numpy path
scatters them, so a columnar run produces bit-identical results with
the kernel on or off (``tests/integration/test_columnar.py`` locks
this).  Statistical equivalence versus ``compiled`` is therefore
established once, at the columnar-model level, by
:mod:`repro.audit.stat_equiv` — the kernel inherits it.

Build cache: the ``.so`` is built once per host, not once per process.
It lives at ``<tempfile.gettempdir()>/repro-ckernel-<uid>/kernel-<key>.so``
(so ``TMPDIR`` moves it), where ``<key>`` is a sha256 over the C source,
the compiler's real path and ``--version`` output, the flags and
``sys.platform``.  The directory is created with mode ``0700`` and
checked with ``lstat`` before any use: it must be a real directory
owned by this user with no group or world bits, otherwise the cache is
skipped and the kernel is built in a private temporary directory, as if
no cache existed -- a ``.so`` planted in a shared ``/tmp`` is never
loaded.  A build happens in a temporary directory inside the cache and
is renamed into place atomically, so racing pool workers at worst both
build; a cached file that fails to load is rebuilt and replaced.

Gating: loading is attempted lazily on first use in a process and never
raises -- any failure (no compiler, a failing or timed-out ``cc``,
unsupported platform) marks the kernel unavailable, logs one WARNING
through :mod:`logging`, and the engine keeps its numpy path.  Set
``REPRO_COLUMNAR_KERNEL=0`` to force the numpy path silently, e.g.
when profiling it or reproducing kernel-off CI lanes.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from typing import Sequence

__all__ = ["available", "load", "PTR", "KS", "PRM"]


class PTR:
    """Slot order of the pointer table handed to ``step_cycles``.

    Must match the ``A_*`` enum in the C source below.  Slots a
    topology kind does not use (ring tables on a mesh run and vice
    versa) are filled with any valid array — the kernel never reads
    them.
    """

    OCC = 0
    HEAD = 1
    SLOTS = 2
    CAP = 3
    IS_SINK = 4
    SINK_PM = 5
    DRAIN = 6
    MID = 7
    REM = 8
    CONT_SRC = 9
    CONT_DST = 10
    PSRC3 = 11
    RT_TBL = 12
    FAST = 13
    LVL_OF = 14
    R_OF_PORT = 15
    IN_BUF = 16
    LQ_RESP = 17
    LQ_REQ = 18
    ROUTE = 19
    M_DST = 20
    M_DIR = 21
    M_R5 = 22
    CLAIMED = 23
    RR = 24
    LOCK = 25
    STG_Q = 26
    STG_QCAP = 27
    STG_PID = 28
    STG_HEAD = 29
    STG_CNT = 30
    OUT = 31
    REM_OPEN = 32
    RX_CNT = 33
    RX_PID = 34
    PM_LOCAL = 35
    PEND = 36
    PEND_RD = 37
    PEND_TGT = 38
    CURSOR = 39
    GAP = 40
    READ = 41
    TGT = 42
    COUNTDOWN = 43
    PKT_DEST = 44
    PKT_SRC = 45
    PKT_SIZE = 46
    PKT_ISSUE = 47
    PKT_RESP = 48
    PKT_READ = 49
    PKT_RT = 50
    MEM_READY = 51
    MEM_PM = 52
    MEM_PID = 53
    LOC_READY = 54
    LOC_PM = 55
    STALLED = 56
    REM_SUM = 57
    REM_CNT = 58
    REM_MIN = 59
    REM_MAX = 60
    REM_LAST = 61
    LOC_SUM = 62
    LOC_CNT = 63
    LOC_MIN = 64
    LOC_MAX = 65
    LOC_LAST = 66
    REMOTE_COMPLETED = 67
    LOCAL_COMPLETED = 68
    REMOTE_ISSUED = 69
    LOCAL_ISSUED = 70
    FLITS_LEVEL = 71
    FLITS_MOVED = 72
    SCRATCH_I = 73
    SCRATCH_U = 74
    REFILL = 75
    KSTATE = 76
    COUNT = 77


class KS:
    """Scalar kernel state (int64) shared across ``step_cycles`` calls."""

    CYCLE = 0
    NPKT = 1
    PKT_CAP = 2
    NET_FLITS = 3
    STG_TOTAL = 4
    PEND_TOTAL = 5
    MEM_HEAD = 6
    MEM_CNT = 7
    LOC_HEAD = 8
    LOC_CNT = 9
    ARG = 10
    COUNT = 16


class PRM:
    """Static parameter vector (int64) — matches the ``P_*`` C enum."""

    KIND = 0  # 0 = ring, 1 = mesh
    R = 1
    U = 2
    P = 3
    L = 4
    NB = 5
    NU = 6
    NPM = 7
    V = 8
    SENT = 9
    SMASK = 10
    BLOG = 11
    SUBC = 12
    MEM_LAT = 13
    T_LIMIT = 14
    HDR = 15
    CL = 16
    BYPASS = 17
    THRESHOLD = 18
    STGCAP = 19
    STGMASK = 20
    MB = 21
    MSHIFT = 22
    MQ_MASK = 23
    COUNT = 24


#: step_cycles return codes.
STATUS_DONE = 0
STATUS_REFILL = 1
STATUS_PKT_GROW = 2
STATUS_DEADLOCK = 3

_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;
typedef double  f64;

enum { P_KIND, P_R, P_U, P_P, P_L, P_NB, P_NU, P_NPM, P_V, P_SENT,
       P_SMASK, P_BLOG, P_SUBC, P_MEMLAT, P_TLIM, P_HDR, P_CL,
       P_BYPASS, P_THRESH, P_STGCAP, P_STGMASK, P_MB, P_MSHIFT,
       P_MQMASK };

enum { K_CYCLE, K_NPKT, K_PKTCAP, K_NETF, K_STGTOT, K_PENDTOT,
       K_MEMH, K_MEMC, K_LOCH, K_LOCC, K_ARG };

enum {
 A_OCC, A_HEAD, A_SLOTS, A_CAP, A_ISSINK, A_SINKPM, A_DRAIN,
 A_MID, A_REM, A_CSRC, A_CDST,
 A_PSRC3, A_RTTBL, A_FAST, A_LVLOF, A_RPORT,
 A_INBUF, A_LQRESP, A_LQREQ, A_ROUTE, A_MDST, A_MDIR, A_MR5,
 A_CLAIM, A_RR, A_LOCK,
 A_STGQ, A_STGQCAP, A_STGPID, A_STGHEAD, A_STGCNT,
 A_OUT, A_REMOPEN, A_RXCNT, A_RXPID, A_PMLOCAL,
 A_PEND, A_PENDRD, A_PENDTGT, A_CURSOR, A_GAP, A_READ, A_TGT, A_CD,
 A_PDEST, A_PSRC, A_PSIZE, A_PISSUE, A_PRESP, A_PREAD, A_PRT,
 A_MEMREADY, A_MEMPM, A_MEMPID, A_LOCREADY, A_LOCPM,
 A_STALLED,
 A_RSUM, A_RCNT, A_RMIN, A_RMAX, A_RLAST,
 A_LSUM, A_LCNT, A_LMIN, A_LMAX, A_LLAST,
 A_RCOMP, A_LCOMP, A_RISS, A_LISS,
 A_FLVL, A_FMOV,
 A_SCRI, A_SCRU, A_REFILL, A_KSTATE };

long step_cycles(void **A, const i64 *pr, i64 max_cycles)
{
    /* ---- unpack ---- */
    i64 *occ    = (i64 *)A[A_OCC];
    i64 *headv  = (i64 *)A[A_HEAD];
    i64 *slots  = (i64 *)A[A_SLOTS];
    i64 *capv   = (i64 *)A[A_CAP];
    u8  *issink = (u8  *)A[A_ISSINK];
    i64 *sinkpm = (i64 *)A[A_SINKPM];
    i64 *drain  = (i64 *)A[A_DRAIN];
    u8  *midv   = (u8  *)A[A_MID];
    i64 *remv   = (i64 *)A[A_REM];
    i64 *csrc   = (i64 *)A[A_CSRC];
    i64 *cdst   = (i64 *)A[A_CDST];
    i64 *psrc3  = (i64 *)A[A_PSRC3];
    i64 *rttbl  = (i64 *)A[A_RTTBL];
    u8  *fastp  = (u8  *)A[A_FAST];
    i64 *lvlof  = (i64 *)A[A_LVLOF];
    i64 *rport  = (i64 *)A[A_RPORT];
    i64 *inbuf  = (i64 *)A[A_INBUF];
    i64 *lqresp = (i64 *)A[A_LQRESP];
    i64 *lqreq  = (i64 *)A[A_LQREQ];
    i64 *route  = (i64 *)A[A_ROUTE];
    i64 *mdst   = (i64 *)A[A_MDST];
    i64 *mdir   = (i64 *)A[A_MDIR];
    i64 *mr5    = (i64 *)A[A_MR5];
    u8  *claim  = (u8  *)A[A_CLAIM];
    i64 *rrv    = (i64 *)A[A_RR];
    i64 *lockv  = (i64 *)A[A_LOCK];
    i64 *stgq   = (i64 *)A[A_STGQ];
    i64 *stgqcap= (i64 *)A[A_STGQCAP];
    i64 *stgpid = (i64 *)A[A_STGPID];
    i64 *stghead= (i64 *)A[A_STGHEAD];
    i64 *stgcnt = (i64 *)A[A_STGCNT];
    i64 *outv   = (i64 *)A[A_OUT];
    i64 *remopen= (i64 *)A[A_REMOPEN];
    i64 *rxcnt  = (i64 *)A[A_RXCNT];
    i64 *rxpid  = (i64 *)A[A_RXPID];
    i64 *pmloc  = (i64 *)A[A_PMLOCAL];
    u8  *pend   = (u8  *)A[A_PEND];
    u8  *pendrd = (u8  *)A[A_PENDRD];
    i64 *pendtg = (i64 *)A[A_PENDTGT];
    i64 *cursor = (i64 *)A[A_CURSOR];
    i64 *gapf   = (i64 *)A[A_GAP];
    u8  *readf  = (u8  *)A[A_READ];
    i64 *tgtf   = (i64 *)A[A_TGT];
    i64 *cd     = (i64 *)A[A_CD];
    i64 *pdest  = (i64 *)A[A_PDEST];
    i64 *psrcp  = (i64 *)A[A_PSRC];
    i64 *psize  = (i64 *)A[A_PSIZE];
    i64 *pissue = (i64 *)A[A_PISSUE];
    u8  *presp  = (u8  *)A[A_PRESP];
    u8  *pread  = (u8  *)A[A_PREAD];
    i64 *prt    = (i64 *)A[A_PRT];
    i64 *memrdy = (i64 *)A[A_MEMREADY];
    i64 *mempm  = (i64 *)A[A_MEMPM];
    i64 *mempid = (i64 *)A[A_MEMPID];
    i64 *locrdy = (i64 *)A[A_LOCREADY];
    i64 *locpm  = (i64 *)A[A_LOCPM];
    i64 *stall  = (i64 *)A[A_STALLED];
    f64 *rsum   = (f64 *)A[A_RSUM];
    i64 *rcnt   = (i64 *)A[A_RCNT];
    f64 *rmin   = (f64 *)A[A_RMIN];
    f64 *rmax   = (f64 *)A[A_RMAX];
    f64 *rlast  = (f64 *)A[A_RLAST];
    f64 *lsum   = (f64 *)A[A_LSUM];
    i64 *lcnt   = (i64 *)A[A_LCNT];
    f64 *lmin   = (f64 *)A[A_LMIN];
    f64 *lmax   = (f64 *)A[A_LMAX];
    f64 *llast  = (f64 *)A[A_LLAST];
    i64 *rcomp  = (i64 *)A[A_RCOMP];
    i64 *lcomp  = (i64 *)A[A_LCOMP];
    i64 *riss   = (i64 *)A[A_RISS];
    i64 *liss   = (i64 *)A[A_LISS];
    i64 *flvl   = (i64 *)A[A_FLVL];
    i64 *fmov   = (i64 *)A[A_FMOV];
    i64 *scri   = (i64 *)A[A_SCRI];
    u8  *scru   = (u8  *)A[A_SCRU];
    i64 *refill = (i64 *)A[A_REFILL];
    i64 *ks     = (i64 *)A[A_KSTATE];

    const i64 kind   = pr[P_KIND];
    const i64 R      = pr[P_R];
    const i64 NU     = pr[P_NU];
    const i64 Pn     = pr[P_P];
    const i64 NPM    = pr[P_NPM];
    const i64 V      = pr[P_V];
    const i64 smask  = pr[P_SMASK];
    const i64 blog   = pr[P_BLOG];
    const i64 subc   = pr[P_SUBC];
    const i64 memlat = pr[P_MEMLAT];
    const i64 tlim   = pr[P_TLIM];
    const i64 hdrsz  = pr[P_HDR];
    const i64 clsz   = pr[P_CL];
    const i64 bypass = pr[P_BYPASS];
    const i64 thresh = pr[P_THRESH];
    const i64 stgcap = pr[P_STGCAP];
    const i64 stgmask= pr[P_STGMASK];
    const i64 MB     = pr[P_MB];
    const i64 mshift = pr[P_MSHIFT];
    const i64 mqmask = pr[P_MQMASK];

    /* scratch layout: sel | dst | pid | bj | comp(2*NPM) | prop(R) | comm(R) */
    i64 *selv = scri;
    i64 *dstv = scri + NU;
    i64 *pidv = scri + 2 * NU;
    i64 *bjv  = scri + 3 * NU;
    i64 *comp = scri + 4 * NU;
    i64 *prop = scri + 4 * NU + 2 * NPM;
    i64 *comm = prop + R;
    u8 *have  = scru;
    u8 *alive = scru + NU;

    i64 cycle = ks[K_CYCLE];
    const i64 end = cycle + max_cycles;
    i64 nref = 0;

    while (cycle < end) {
        if (ks[K_NPKT] + 2 * NPM + 4 > ks[K_PKTCAP]) {
            ks[K_CYCLE] = cycle;
            return 2;
        }
        /* quiet jump: nothing in flight, nothing staged or parked */
        if (ks[K_NETF] == 0 && ks[K_MEMC] == 0 && ks[K_LOCC] == 0 &&
            ks[K_STGTOT] == 0 && ks[K_PENDTOT] == 0) {
            i64 m = cd[0];
            for (i64 f = 1; f < NPM; f++) if (cd[f] < m) m = cd[f];
            i64 dt = m;
            if (dt > end - cycle) dt = end - cycle;
            if (dt > 1) {
                for (i64 f = 0; f < NPM; f++) cd[f] -= dt - 1;
                cycle += dt - 1;
            }
        }
        i64 ncomp = 0;
        for (i64 r = 0; r < R; r++) { prop[r] = 0; comm[r] = 0; }

        for (i64 sub = 0; sub < subc; sub++) {
            /* ---- propose ---- */
            i64 any = 0;
            if (kind == 0) {
                for (i64 u = 0; u < NU; u++) {
                    i64 src;
                    if (midv[u]) {
                        src = csrc[u];
                    } else {
                        i64 a = psrc3[u];
                        i64 b = psrc3[NU + u];
                        src = occ[a] > 0 ? a : (occ[b] > 0 ? b : psrc3[2 * NU + u]);
                    }
                    u8 h = occ[src] > 0;
                    if (sub == 1 && !fastp[u]) h = 0;
                    have[u] = h;
                    alive[u] = h;
                    if (!h) continue;
                    any = 1;
                    prop[rport[u]]++;
                    i64 p = slots[(src << blog) + headv[src]];
                    selv[u] = src;
                    pidv[u] = p;
                    dstv[u] = midv[u] ? cdst[u]
                                      : rttbl[u * (2 * Pn) + prt[p]];
                }
            } else {
                for (i64 u = 0; u < NU; u++) {
                    i64 rf5 = mr5[u];
                    i64 src = 0, bju = 0;
                    u8 h = 0;
                    if (lockv[u] >= 0) {
                        src = csrc[u];
                        h = occ[src] > 0;
                    } else {
                        i64 rfl = rf5 / 5;
                        i64 vloc = rfl % V;
                        i64 rrbase = rrv[u];
                        for (i64 jj = 0; jj < 5; jj++) {
                            i64 j = (rrbase + jj) % 5;
                            i64 b;
                            if (j == 4)
                                b = occ[lqresp[rfl]] > 0 ? lqresp[rfl]
                                                         : lqreq[rfl];
                            else
                                b = inbuf[rf5 + j];
                            if (occ[b] <= 0 || claim[rf5 + j]) continue;
                            i64 hp = slots[(b << blog) + headv[b]];
                            if (route[vloc * Pn + pdest[hp]] != mdir[u])
                                continue;
                            src = b; bju = j; h = 1;
                            break;
                        }
                    }
                    have[u] = h;
                    alive[u] = h;
                    if (!h) continue;
                    any = 1;
                    prop[rport[u]]++;
                    selv[u] = src;
                    bjv[u] = bju;
                    pidv[u] = slots[(src << blog) + headv[src]];
                    dstv[u] = mdst[u];
                }
            }
            if (!any) continue;

            /* ---- resolve: GFP revocation fixed point ---- */
            i64 anyover = 0;
            for (i64 u = 0; u < NU; u++)
                if (alive[u] && occ[dstv[u]] >= capv[dstv[u]]) { anyover = 1; break; }
            if (anyover) {
                if (!bypass) {
                    for (i64 u = 0; u < NU; u++)
                        if (alive[u] && occ[dstv[u]] >= capv[dstv[u]])
                            alive[u] = 0;
                } else {
                    for (;;) {
                        for (i64 u = 0; u < NU; u++)
                            if (alive[u]) drain[selv[u]] = 1;
                        i64 changed = 0;
                        for (i64 u = 0; u < NU; u++)
                            if (alive[u] &&
                                occ[dstv[u]] - drain[dstv[u]] >= capv[dstv[u]]) {
                                alive[u] = 0;
                                changed = 1;
                            }
                        for (i64 u = 0; u < NU; u++)
                            if (have[u]) drain[selv[u]] = 0;
                        if (!changed) break;
                    }
                }
            }

            /* ---- commit: all pops before any fill ---- */
            for (i64 u = 0; u < NU; u++) {
                if (!alive[u]) continue;
                comm[rport[u]]++;
                i64 s = selv[u];
                occ[s]--;
                headv[s] = (headv[s] + 1) & smask;
            }
            for (i64 u = 0; u < NU; u++) {
                if (!alive[u]) continue;
                i64 d = dstv[u];
                i64 p = pidv[u];
                flvl[lvlof[u]]++;
                fmov[rport[u]]++;
                if (issink[d]) {
                    i64 spm = sinkpm[d];
                    i64 c = ++rxcnt[spm];
                    rxpid[spm] = p;
                    if (c == psize[p]) {
                        comp[2 * ncomp] = spm;
                        comp[2 * ncomp + 1] = p;
                        ncomp++;
                        rxcnt[spm] = 0;
                    }
                    ks[K_NETF]--;
                } else {
                    i64 pos = (headv[d] + occ[d]) & smask;
                    slots[(d << blog) + pos] = p;
                    occ[d]++;
                }
            }
            if (kind == 0) {
                for (i64 u = 0; u < NU; u++) {
                    if (!alive[u]) continue;
                    if (midv[u]) {
                        if (--remv[u] == 0) midv[u] = 0;
                    } else if (psize[pidv[u]] > 1) {
                        midv[u] = 1;
                        remv[u] = psize[pidv[u]] - 1;
                        csrc[u] = selv[u];
                        cdst[u] = dstv[u];
                    }
                }
            } else {
                for (i64 u = 0; u < NU; u++) {
                    if (!alive[u]) continue;
                    if (lockv[u] >= 0) {
                        if (--remv[u] == 0) {
                            claim[mr5[u] + lockv[u]] = 0;
                            lockv[u] = -1;
                        }
                    } else {
                        i64 b = bjv[u];
                        rrv[u] = (b + 1) % 5;
                        i64 sz = psize[pidv[u]];
                        if (sz > 1) {
                            lockv[u] = b;
                            claim[mr5[u] + b] = 1;
                            csrc[u] = selv[u];
                            remv[u] = sz - 1;
                        }
                    }
                }
            }
        }

        /* ---- watchdog ---- */
        for (i64 r = 0; r < R; r++) {
            if (prop[r] > 0 && comm[r] == 0) {
                if (++stall[r] >= thresh) {
                    ks[K_CYCLE] = cycle;
                    ks[K_ARG] = r;
                    return 3;
                }
            } else {
                stall[r] = 0;
            }
        }

        /* ---- PM update: ejects, memory, local, generate, drain ---- */
        for (i64 k = 0; k < ncomp; k++) {
            i64 pm = comp[2 * k];
            i64 p = comp[2 * k + 1];
            if (presp[p]) {
                outv[pm]--;
                remopen[pm]--;
                i64 r = pm / Pn;
                f64 lat = (f64)(cycle - pissue[p]);
                rsum[r] += lat;
                rcnt[r]++;
                if (lat < rmin[r]) rmin[r] = lat;
                if (lat > rmax[r]) rmax[r] = lat;
                rlast[r] = lat;
                rcomp[r]++;
            } else {
                i64 t = (ks[K_MEMH] + ks[K_MEMC]) & mqmask;
                memrdy[t] = cycle + memlat;
                mempm[t] = pm;
                mempid[t] = p;
                ks[K_MEMC]++;
            }
        }
        while (ks[K_MEMC] > 0 && memrdy[ks[K_MEMH] & mqmask] <= cycle) {
            i64 hh = ks[K_MEMH] & mqmask;
            i64 pm = mempm[hh];
            i64 rq = mempid[hh];
            ks[K_MEMH]++;
            ks[K_MEMC]--;
            i64 p = ks[K_NPKT]++;
            u8 rd = pread[rq];
            i64 dpm = psrcp[rq];
            pdest[p] = dpm;
            psrcp[p] = pmloc[pm];
            presp[p] = 1;
            pread[p] = rd;
            psize[p] = rd ? clsz : hdrsz;
            pissue[p] = pissue[rq];
            prt[p] = dpm * 2 + 1;
            i64 pos = (stghead[pm] + stgcnt[pm]) & stgmask;
            stgpid[pm * stgcap + pos] = p;
            stgcnt[pm]++;
            ks[K_STGTOT]++;
        }
        while (ks[K_LOCC] > 0 && locrdy[ks[K_LOCH] & mqmask] <= cycle) {
            i64 hh = ks[K_LOCH] & mqmask;
            i64 pm = locpm[hh];
            ks[K_LOCH]++;
            ks[K_LOCC]--;
            outv[pm]--;
            i64 r = pm / Pn;
            f64 lat = (f64)memlat;
            lsum[r] += lat;
            lcnt[r]++;
            if (lat < lmin[r]) lmin[r] = lat;
            if (lat > lmax[r]) lmax[r] = lat;
            llast[r] = lat;
            lcomp[r]++;
        }
        /* generate (M-MRP; a parked pm's draws stay frozen) */
        for (i64 f = 0; f < NPM; f++) {
            u8 rd;
            i64 tg;
            if (pend[f]) {
                if (outv[f] >= tlim) continue;
                pend[f] = 0;
                ks[K_PENDTOT]--;
                rd = pendrd[f];
                tg = pendtg[f];
            } else {
                if (--cd[f] != 0) continue;
                i64 cur = cursor[f];
                i64 base = f << mshift;
                rd = readf[base + cur];
                tg = tgtf[base + cur];
                cur++;
                if (cur == MB) {
                    refill[nref++] = f;
                    cursor[f] = 0;
                    cd[f] = (i64)1 << 60; /* overwritten by the refill */
                } else {
                    cursor[f] = cur;
                    cd[f] = gapf[base + cur];
                }
                if (outv[f] >= tlim) {
                    pend[f] = 1;
                    pendrd[f] = rd;
                    pendtg[f] = tg;
                    ks[K_PENDTOT]++;
                    continue;
                }
            }
            outv[f]++;
            i64 r = f / Pn;
            if (tg == pmloc[f]) {
                i64 t = (ks[K_LOCH] + ks[K_LOCC]) & mqmask;
                locrdy[t] = cycle + memlat;
                locpm[t] = f;
                ks[K_LOCC]++;
                liss[r]++;
            } else {
                i64 p = ks[K_NPKT]++;
                pdest[p] = tg;
                psrcp[p] = pmloc[f];
                presp[p] = 0;
                pread[p] = rd;
                psize[p] = rd ? hdrsz : clsz;
                pissue[p] = cycle;
                prt[p] = tg * 2;
                remopen[f]++;
                i64 col = f + NPM;
                i64 pos = (stghead[col] + stgcnt[col]) & stgmask;
                stgpid[col * stgcap + pos] = p;
                stgcnt[col]++;
                ks[K_STGTOT]++;
                riss[r]++;
            }
        }
        /* drain staging while whole packets fit */
        if (ks[K_STGTOT] > 0) {
            for (i64 col = 0; col < 2 * NPM; col++) {
                while (stgcnt[col] > 0) {
                    i64 p = stgpid[col * stgcap + stghead[col]];
                    i64 sz = psize[p];
                    i64 q = stgq[col];
                    if (stgqcap[col] - occ[q] < sz) break;
                    stghead[col] = (stghead[col] + 1) & stgmask;
                    stgcnt[col]--;
                    ks[K_STGTOT]--;
                    i64 tl = headv[q] + occ[q];
                    for (i64 i = 0; i < sz; i++)
                        slots[(q << blog) + ((tl + i) & smask)] = p;
                    occ[q] += sz;
                    ks[K_NETF] += sz;
                }
            }
        }

        cycle++;
        if (nref > 0) {
            ks[K_CYCLE] = cycle;
            ks[K_ARG] = nref;
            return 1;
        }
    }
    ks[K_CYCLE] = cycle;
    return 0;
}
"""

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_tried = False
_log = logging.getLogger(__name__)

#: Compiler flags; part of the cache key.
_CFLAGS = ("-O2", "-shared", "-fPIC")
_CC_TIMEOUT_SEC = 120


def _disabled() -> bool:
    return os.environ.get("REPRO_COLUMNAR_KERNEL", "").lower() in (
        "0",
        "off",
        "no",
        "false",
    )


def _find_cc() -> str | None:
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _cache_key(cc: str, flags: Sequence[str]) -> str:
    """Content address of one build: source, compiler identity, flags, OS."""
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=_CC_TIMEOUT_SEC
        ).stdout
    except (OSError, subprocess.SubprocessError):
        version = b""
    digest = hashlib.sha256()
    for part in (
        _SOURCE.encode("utf-8"),
        os.path.realpath(cc).encode("utf-8"),
        version,
        "\0".join(flags).encode("utf-8"),
        sys.platform.encode("utf-8"),
    ):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _cache_dir() -> str | None:
    """The per-user cache directory, or ``None`` if it cannot be trusted.

    Trusted means: a real directory (not a symlink), owned by this user,
    with no group or world permission bits.  Anything else -- another
    user's planted directory in a shared ``/tmp``, a loosened mode --
    is never read from or written to.
    """
    path = os.path.join(tempfile.gettempdir(), f"repro-ckernel-{os.getuid()}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
    except OSError:
        pass  # judged by the lstat below
    st: os.stat_result | None
    try:
        st = os.lstat(path)
    except OSError:
        st = None
    if (
        st is None
        or not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & 0o077
    ):
        _log.info(
            "columnar kernel cache directory %s is not a private directory "
            "of this user; building the kernel privately instead",
            path,
        )
        return None
    return path


def _bind(path: str) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(path)
        lib.step_cycles.restype = ctypes.c_long
        lib.step_cycles.argtypes = [
            ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
        ]
    except OSError:
        return None
    return lib


def _build(cc: str, workdir: str) -> str | None:
    """Compile the kernel inside *workdir*; the ``.so`` path, or ``None``."""
    src = os.path.join(workdir, "kernel.c")
    so = os.path.join(workdir, "kernel.so")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(_SOURCE)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", so, src],
            capture_output=True,
            timeout=_CC_TIMEOUT_SEC,
        )
    except subprocess.TimeoutExpired:
        _log.warning(
            "columnar kernel build timed out after %d s; using the numpy path",
            _CC_TIMEOUT_SEC,
        )
        return None
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        _log.warning(
            "columnar kernel build failed (%s exited %d); using the numpy path:\n%s",
            cc,
            proc.returncode,
            "\n".join(tail),
        )
        return None
    return so


def _build_and_bind(cc: str, parent: str | None, dest: str | None) -> ctypes.CDLL | None:
    """Build in a fresh directory under *parent* and load the result.

    With *dest* set the loaded ``.so`` is then renamed onto it: the
    rename is atomic, so racing processes at worst both build and no
    reader ever sees a partial file.  The mapping stays valid after the
    build directory is removed on ELF platforms.
    """
    workdir = tempfile.mkdtemp(prefix="repro-ckernel-build-", dir=parent)
    try:
        so = _build(cc, workdir)
        if so is None:
            return None
        lib = _bind(so)
        if lib is None:
            _log.warning("columnar kernel built but failed to load; using the numpy path")
            return None
        if dest is not None:
            try:
                os.replace(so, dest)
            except OSError:
                pass  # the kernel is loaded; only the cache write is lost
        return lib
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _compile() -> ctypes.CDLL | None:
    cc = _find_cc()
    if cc is None:
        _log.warning("no C compiler (cc/gcc/clang) found; columnar kernel uses the numpy path")
        return None
    if not sys.platform.startswith(("linux", "darwin")):
        _log.warning(
            "columnar kernel is not supported on %s; using the numpy path", sys.platform
        )
        return None
    try:
        cache = _cache_dir()
        if cache is None:
            return _build_and_bind(cc, None, None)
        dest = os.path.join(cache, f"kernel-{_cache_key(cc, _CFLAGS)}.so")
        # Missing or unloadable (truncated, corrupt): rebuild and replace.
        return _bind(dest) or _build_and_bind(cc, cache, dest)
    except OSError as exc:
        _log.warning("columnar kernel build failed (%s); using the numpy path", exc)
        return None


def load() -> ctypes.CDLL | None:
    """Load (building at most once per host) and return the kernel, or ``None``."""
    global _lib, _tried
    if _disabled():
        return None
    with _lock:
        if not _tried:
            _tried = True
            _lib = _compile()
        return _lib


def available() -> bool:
    return load() is not None
