//! Scoring functions for the streaming partitioning pass.
//!
//! # The 2PS-L two-choice score (paper §III-B, step 3)
//!
//! For an edge `(u, v)` and a candidate partition `p`:
//!
//! ```text
//! s(u, v, p)  =  g_u + g_v + sc_u + sc_v
//! g_u  = 1 + (1 − d_u / (d_u + d_v))   if u is replicated on p, else 0
//! sc_u = vol(c_u) / (vol(c_u) + vol(c_v))   if c_u is mapped to p, else 0
//! ```
//!
//! The `g` terms reward partitions that already host an endpoint, weighting
//! the *lower-degree* endpoint higher (cutting through high-degree vertices
//! is cheaper — the HDRF insight). The `sc` terms are 2PS-L's novelty: they
//! reward the partition associated with the **higher-volume** cluster,
//! because more of that cluster's edges are still to come in the stream.
//!
//! Evaluated for exactly two candidates per edge regardless of `k` — this is
//! what makes 2PS-L linear-time.
//!
//! # The HDRF score (used by the 2PS-HDRF variant)
//!
//! `C_HDRF(u,v,p) = C_REP(u,v,p) + λ · C_BAL(p)` with the degree-weighted
//! replication reward `C_REP` and the balance reward
//! `C_BAL = (maxsize − |p|) / (ε + maxsize − minsize)`, evaluated for **all
//! k** partitions (Petroni et al., CIKM'15).

use tps_graph::types::{PartitionId, VertexId};
use tps_metrics::bitmatrix::ReplicaSet;

/// Everything the two-choice score needs to know about one edge.
#[derive(Clone, Copy, Debug)]
pub struct EdgeScoreInputs {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Exact degree of `u`.
    pub du: u64,
    /// Exact degree of `v`.
    pub dv: u64,
    /// Volume of `u`'s cluster.
    pub vol_cu: u64,
    /// Volume of `v`'s cluster.
    pub vol_cv: u64,
    /// Partition mapped to `u`'s cluster.
    pub pu: PartitionId,
    /// Partition mapped to `v`'s cluster.
    pub pv: PartitionId,
}

/// The degree-balance term `g` shared by both scores:
/// `1 + (1 − d_self / (d_u + d_v))` when replicated, else 0.
///
/// Branchless: the `replicated` bit comes from the replication matrix and
/// is data-dependent (close to 50/50 in the assignment loop), so a branch
/// here mispredicts constantly. The multiply-by-{0.0, 1.0} form keeps the
/// replicated value bit-identical to the branchy
/// `1.0 + (1.0 - d_self / d_sum)` expression.
#[inline(always)]
fn g_term(replicated: bool, d_self: u64, d_sum: u64) -> f64 {
    debug_assert!(d_sum > 0, "edge endpoints must have positive degrees");
    f64::from(replicated) * (1.0 + (1.0 - d_self as f64 / d_sum as f64))
}

/// The 2PS-L score `s(u, v, p)` for candidate partition `p`. Generic over
/// the replication state so the owned-matrix (serial, dist worker) and
/// shared-matrix (chunk-parallel) kernels score identically by
/// construction.
///
/// Always inlined, as are [`two_choice_best`] and `g_term`: out of line
/// (two calls per scored edge) the scoring subpass runs 20–40 % slower,
/// and a wider replica-row index is enough to tip the inliner. CI fails
/// the build if the release binary holds an out-of-line copy.
#[inline(always)]
pub fn two_choice_score<R: ReplicaSet>(inputs: &EdgeScoreInputs, p: PartitionId, v2p: &R) -> f64 {
    let d_sum = inputs.du + inputs.dv;
    let vol_sum = (inputs.vol_cu + inputs.vol_cv) as f64;
    debug_assert!(
        vol_sum > 0.0,
        "clusters of edge endpoints cannot both be empty"
    );
    // Branchless throughout: each term is gated by a {0.0, 1.0} factor
    // rather than a data-dependent branch. Adding a gated-out 0.0 term is
    // exact (all terms are non-negative), so the sum is bit-identical to
    // the branchy formulation.
    let mut score = 0.0;
    score += g_term(v2p.contains(inputs.u, p), inputs.du, d_sum);
    score += g_term(v2p.contains(inputs.v, p), inputs.dv, d_sum);
    score += f64::from(inputs.pu == p) * (inputs.vol_cu as f64 / vol_sum);
    score += f64::from(inputs.pv == p) * (inputs.vol_cv as f64 / vol_sum);
    score
}

/// Pick the better of the two candidate partitions `{pu, pv}` for the edge.
/// Ties favour `pu` (the first endpoint's cluster partition), matching the
/// strict `>` comparison of Algorithm 2.
#[inline(always)]
pub fn two_choice_best<R: ReplicaSet>(inputs: &EdgeScoreInputs, v2p: &R) -> PartitionId {
    if inputs.pu == inputs.pv {
        return inputs.pu;
    }
    let su = two_choice_score(inputs, inputs.pu, v2p);
    let sv = two_choice_score(inputs, inputs.pv, v2p);
    // Which candidate wins is data-dependent and unpredictable; the index
    // select compiles to a conditional move instead of a branch.
    [inputs.pu, inputs.pv][usize::from(sv > su)]
}

/// HDRF scoring parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HdrfParams {
    /// Balance weight λ (the paper's appendix uses 1.1).
    pub lambda: f64,
    /// Stabiliser ε in the balance denominator.
    pub epsilon: f64,
}

impl Default for HdrfParams {
    fn default() -> Self {
        HdrfParams {
            lambda: 1.1,
            epsilon: 1.0,
        }
    }
}

/// The HDRF score of `p` for edge `(u, v)` given current loads.
///
/// The argument list mirrors the quantities of the published formula; a
/// params struct would only obscure the correspondence.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn hdrf_score<R: ReplicaSet>(
    u: VertexId,
    v: VertexId,
    du: u64,
    dv: u64,
    p: PartitionId,
    v2p: &R,
    load: u64,
    max_load: u64,
    min_load: u64,
    params: &HdrfParams,
) -> f64 {
    let d_sum = du + dv;
    let c_rep = g_term(v2p.contains(u, p), du, d_sum) + g_term(v2p.contains(v, p), dv, d_sum);
    let c_bal =
        (max_load as f64 - load as f64) / (params.epsilon + max_load as f64 - min_load as f64);
    c_rep + params.lambda * c_bal
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_metrics::bitmatrix::ReplicationMatrix;

    fn inputs(du: u64, dv: u64, vol_cu: u64, vol_cv: u64) -> EdgeScoreInputs {
        EdgeScoreInputs {
            u: 0,
            v: 1,
            du,
            dv,
            vol_cu,
            vol_cv,
            pu: 0,
            pv: 1,
        }
    }

    #[test]
    fn fresh_edge_prefers_higher_volume_cluster() {
        // No replicas anywhere: only the sc terms differ; the higher-volume
        // cluster's partition must win.
        let v2p = ReplicationMatrix::new(2, 2);
        let inp = inputs(3, 3, 10, 30);
        assert_eq!(two_choice_best(&inp, &v2p), 1);
        let inp2 = inputs(3, 3, 30, 10);
        assert_eq!(two_choice_best(&inp2, &v2p), 0);
    }

    #[test]
    fn replication_dominates_volume() {
        // u already lives on partition 0; vol pulls towards 1, but the g term
        // (≥ 1) outweighs the sc term (≤ 1).
        let mut v2p = ReplicationMatrix::new(2, 2);
        v2p.set(0, 0);
        let inp = inputs(2, 2, 1, 99);
        assert_eq!(two_choice_best(&inp, &v2p), 0);
    }

    #[test]
    fn lower_degree_replica_weighs_more() {
        // Both endpoints replicated, on different partitions. The partition
        // holding the *lower-degree* endpoint should score higher (its g term
        // is larger), volumes equal.
        let mut v2p = ReplicationMatrix::new(2, 2);
        v2p.set(0, 0); // u (low degree) on p0
        v2p.set(1, 1); // v (high degree) on p1
        let inp = inputs(1, 9, 50, 50);
        // g_u(p0) = 1 + (1 - 0.1) = 1.9 ; g_v(p1) = 1 + (1 - 0.9) = 1.1
        assert_eq!(two_choice_best(&inp, &v2p), 0);
    }

    #[test]
    fn ties_prefer_first_endpoint_partition() {
        let v2p = ReplicationMatrix::new(2, 2);
        let inp = inputs(3, 3, 10, 10);
        assert_eq!(two_choice_best(&inp, &v2p), 0);
    }

    #[test]
    fn same_candidate_short_circuits() {
        let v2p = ReplicationMatrix::new(2, 4);
        let mut inp = inputs(1, 1, 1, 1);
        inp.pu = 3;
        inp.pv = 3;
        assert_eq!(two_choice_best(&inp, &v2p), 3);
    }

    #[test]
    fn score_components_add_up() {
        let mut v2p = ReplicationMatrix::new(2, 2);
        v2p.set(0, 0);
        v2p.set(1, 0);
        let inp = inputs(2, 6, 20, 60);
        // On p0: g_u = 1 + (1 - 2/8) = 1.75, g_v = 1 + (1 - 6/8) = 1.25,
        // sc_u = 20/80 = 0.25, sc_v = 0 (pv = 1)  → total 3.25.
        let s = two_choice_score(&inp, 0, &v2p);
        assert!((s - 3.25).abs() < 1e-12, "{s}");
    }

    #[test]
    fn hdrf_balance_term_prefers_empty_partition() {
        let v2p = ReplicationMatrix::new(2, 2);
        let params = HdrfParams::default();
        // No replicas: only balance distinguishes. p0 holds 10 edges, p1 none.
        let s0 = hdrf_score(0, 1, 2, 2, 0, &v2p, 10, 10, 0, &params);
        let s1 = hdrf_score(0, 1, 2, 2, 1, &v2p, 0, 10, 0, &params);
        assert!(s1 > s0);
    }

    #[test]
    fn hdrf_replication_beats_balance_at_default_lambda() {
        let mut v2p = ReplicationMatrix::new(2, 2);
        v2p.set(0, 0);
        v2p.set(1, 0);
        let params = HdrfParams::default();
        // p0 is fuller but holds both endpoints.
        let s0 = hdrf_score(0, 1, 2, 2, 0, &v2p, 10, 10, 0, &params);
        let s1 = hdrf_score(0, 1, 2, 2, 1, &v2p, 0, 10, 0, &params);
        assert!(s0 > s1);
    }
}
