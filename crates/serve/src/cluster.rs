//! Live fleet state: which session runs which game on which server, and
//! the placement shards it is partitioned into.
//!
//! The daemon keeps each shard under its own mutex — placement must read
//! the occupancy, pick a server and insert atomically, or two concurrent
//! `Place` requests could both land on a server's last slot. What a shard
//! does under that lock is a `Shard` method, shared with the serial
//! [`crate::Reference`].
//!
//! Session ids and placements are stored in parallel per-server arrays so
//! the placement scorer can borrow each server's `&[Placement]` directly
//! (via [`gaugur_sched::OccupancyView`]) instead of cloning the fleet into
//! a `Vec<Vec<Placement>>` on every request.

use crate::model::MemoizedFps;
use crate::trace::{elapsed_us, RequestTrace, Stage};
use gaugur_core::Placement;
use gaugur_sched::maxfps::MAX_PER_SERVER;
use gaugur_sched::{
    select_server_incremental_with, OccupancyView, PlacementScratch, PredictScratch, ScoreCache,
    Selection,
};
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// The shard owning session `id` among `n_shards` (shard `s` mints the ids
/// with `(id - 1) % n_shards == s`). Total: any id — including 0 and ids
/// never issued — maps to some shard, whose cluster then answers "unknown"
/// for ids it never minted.
pub(crate) fn shard_of_session(id: u64, n_shards: usize) -> usize {
    (id.wrapping_sub(1) % n_shards as u64) as usize
}

/// One placement domain: the occupancy of a contiguous server range plus
/// its score cache. Server indices inside are shard-local; the methods
/// return global fleet indices (local + `base`).
pub(crate) struct Shard {
    pub(crate) cluster: ClusterState,
    pub(crate) scores: ScoreCache,
    /// Bumped on every occupancy mutation (admit, depart, rollback): an
    /// unchanged epoch proves a ranking was computed from the occupancy
    /// still in force.
    pub(crate) epoch: u64,
    /// Global index of the shard's first server.
    pub(crate) base: usize,
}

impl Shard {
    /// Partition a fleet of `n_servers` into `shards` (clamped to
    /// `[1, n_servers]`) contiguous disjoint ranges; the first
    /// `n_servers % shards` absorb the remainder, so sizes differ by at most
    /// one. Shard `s` mints the interleaved id stream with offset `s`. An
    /// empty fleet is an `InvalidInput` error.
    pub(crate) fn partition(n_servers: usize, shards: usize) -> io::Result<Vec<Shard>> {
        if n_servers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet needs at least one server",
            ));
        }
        let n_shards = shards.clamp(1, n_servers);
        let mut base = 0;
        let partition = (0..n_shards).map(|s| {
            let size = n_servers / n_shards + usize::from(s < n_servers % n_shards);
            let shard = Shard {
                cluster: ClusterState::new_sharded(size, s as u64, n_shards as u64),
                scores: ScoreCache::new(size),
                epoch: 0,
                base,
            };
            base += size;
            shard
        });
        Ok(partition.collect())
    }

    /// Choose a server for `placement` in one incremental pass, leaving the
    /// chosen server's post-admit sum in the score cache under the admit
    /// contract. Timed as [`Stage::Place`].
    pub(crate) fn select(
        &mut self,
        fps: &MemoizedFps<'_>,
        scratch: &mut PlacementScratch,
        placement: Placement,
        trace: &mut RequestTrace,
    ) -> Option<Selection> {
        let started = Instant::now();
        let sel = select_server_incremental_with(
            &self.cluster,
            placement,
            fps,
            fps.model.version,
            &mut self.scores,
            scratch,
        );
        trace.add(Stage::Place, elapsed_us(started));
        sel
    }

    /// Admit `placement` on the server `sel` chose, predicting the new
    /// session's FPS against the pre-admit co-runners first (timed as
    /// [`Stage::Predict`]), and bump the epoch: `(session, global server,
    /// predicted fps)`.
    pub(crate) fn admit(
        &mut self,
        fps: &MemoizedFps<'_>,
        scratch: &mut PredictScratch,
        placement: Placement,
        sel: &Selection,
        trace: &mut RequestTrace,
    ) -> (u64, usize, f64) {
        let started = Instant::now();
        let (prediction, _) = fps.memo.predict_with(
            fps.model,
            fps.qos,
            placement,
            self.cluster.members(sel.server),
            scratch,
        );
        trace.add(Stage::Predict, elapsed_us(started));
        let session = self.cluster.admit(sel.server, placement);
        self.epoch += 1;
        (session, self.base + sel.server, prediction.fps)
    }

    /// Depart `session` if this shard holds it, forgetting its server's
    /// cached sum and bumping the epoch: the global server it left.
    pub(crate) fn depart(&mut self, session: u64) -> Option<usize> {
        let placed = self.cluster.depart(session)?;
        self.scores.invalidate(placed.server);
        self.epoch += 1;
        Some(self.base + placed.server)
    }
}

/// One placed session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedSession {
    /// Daemon-assigned id.
    pub id: u64,
    /// Game and resolution.
    pub placement: Placement,
    /// Server index it runs on.
    pub server: usize,
}

/// The fleet (or one shard of it): per-server session lists plus a session
/// index.
pub struct ClusterState {
    /// Session ids per server; `ids[s][i]` owns `members[s][i]`.
    ids: Vec<Vec<u64>>,
    /// Placements per server, kept in lockstep with `ids`.
    members: Vec<Vec<Placement>>,
    index: HashMap<u64, usize>,
    /// Sessions ever admitted by this instance; the k-th admission gets id
    /// `k * id_stride + id_offset + 1`.
    admissions: u64,
    id_offset: u64,
    id_stride: u64,
}

impl ClusterState {
    /// An empty fleet of `n_servers` servers minting ids 1, 2, 3, ….
    pub fn new(n_servers: usize) -> ClusterState {
        ClusterState::new_sharded(n_servers, 0, 1)
    }

    /// An empty fleet of `n_servers` servers minting the interleaved id
    /// stream `offset + 1, offset + 1 + stride, offset + 1 + 2·stride, …`.
    /// With one instance per placement shard (`offset` = shard index,
    /// `stride` = shard count) every id maps back to its shard as
    /// `(id - 1) % stride`, and `(0, 1)` degenerates to the classic
    /// 1, 2, 3, … sequence.
    pub fn new_sharded(n_servers: usize, offset: u64, stride: u64) -> ClusterState {
        assert!(n_servers > 0, "fleet needs at least one server");
        assert!(stride > 0 && offset < stride, "bad id scheme");
        ClusterState {
            ids: vec![Vec::new(); n_servers],
            members: vec![Vec::new(); n_servers],
            index: HashMap::new(),
            admissions: 0,
            id_offset: offset,
            id_stride: stride,
        }
    }

    /// Fleet size.
    pub fn n_servers(&self) -> usize {
        self.members.len()
    }

    /// Sessions currently placed.
    pub fn active_sessions(&self) -> usize {
        self.index.len()
    }

    /// Borrowed view of one server's placements — the hot-path accessor
    /// (also exposed through [`OccupancyView`]).
    pub fn members(&self, server: usize) -> &[Placement] {
        &self.members[server]
    }

    /// Sessions on one server.
    pub fn server_load(&self, server: usize) -> usize {
        self.members[server].len()
    }

    /// Insert a session on `server` (already chosen by the policy) and
    /// return its id. Panics if the placement would break the per-server
    /// invariants — the caller must have used the eligibility filter.
    pub fn admit(&mut self, server: usize, placement: Placement) -> u64 {
        let contents = &mut self.members[server];
        assert!(contents.len() < MAX_PER_SERVER, "server {server} full");
        assert!(
            !contents.iter().any(|&(g, _)| g == placement.0),
            "game {:?} already on server {server}",
            placement.0
        );
        let id = self.admissions * self.id_stride + self.id_offset + 1;
        self.admissions += 1;
        contents.push(placement);
        self.ids[server].push(id);
        self.index.insert(id, server);
        id
    }

    /// Look up a live session without removing it (`None` for unknown or
    /// already-departed ids). The outcome-ingestion path uses this to
    /// attribute an observed frame rate to the session's game and server.
    pub fn lookup(&self, id: u64) -> Option<PlacedSession> {
        let &server = self.index.get(&id)?;
        let pos = self.ids[server].iter().position(|&sid| sid == id)?;
        Some(PlacedSession {
            id,
            placement: self.members[server][pos],
            server,
        })
    }

    /// Remove a session; returns what was removed, or `None` for an unknown
    /// id (double-departs are client errors, not panics).
    pub fn depart(&mut self, id: u64) -> Option<PlacedSession> {
        let server = self.index.remove(&id)?;
        let pos = self.ids[server]
            .iter()
            .position(|&sid| sid == id)
            .expect("index and server list agree");
        self.ids[server].remove(pos);
        let placement = self.members[server].remove(pos);
        Some(PlacedSession {
            id,
            placement,
            server,
        })
    }

    /// Sessions indexed here whose id does not belong to this instance's id
    /// stream. Structurally impossible (every id is minted by [`admit`])
    /// and therefore always zero — exported so the chaos harness's
    /// conservation oracle can assert that routing by `(id - 1) % stride`
    /// and actual shard membership never diverge.
    ///
    /// [`admit`]: ClusterState::admit
    pub fn misrouted_sessions(&self) -> u64 {
        self.index
            .keys()
            .filter(|&&id| id == 0 || (id - 1) % self.id_stride != self.id_offset)
            .count() as u64
    }

    /// Check internal invariants (used by tests and debug assertions).
    pub fn check_invariants(&self) {
        assert_eq!(self.ids.len(), self.members.len());
        for (s, contents) in self.members.iter().enumerate() {
            assert_eq!(
                self.ids[s].len(),
                contents.len(),
                "server {s} id/member lists diverged"
            );
            assert!(
                contents.len() <= MAX_PER_SERVER,
                "server {s} exceeds MAX_PER_SERVER"
            );
            for (i, &(g, _)) in contents.iter().enumerate() {
                assert!(
                    !contents[i + 1..].iter().any(|&(g2, _)| g2 == g),
                    "server {s} runs game {g:?} twice"
                );
            }
            for &id in &self.ids[s] {
                assert_eq!(self.index.get(&id), Some(&s), "session {id} misindexed");
                assert_eq!(
                    (id - 1) % self.id_stride,
                    self.id_offset,
                    "session {id} does not belong to this id stream"
                );
            }
        }
        assert_eq!(
            self.index.len(),
            self.members.iter().map(Vec::len).sum::<usize>()
        );
    }
}

impl OccupancyView for ClusterState {
    fn n_servers(&self) -> usize {
        self.members.len()
    }

    fn members(&self, server: usize) -> &[Placement] {
        &self.members[server]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugur_gamesim::{GameId, Resolution};

    const R: Resolution = Resolution::Fhd1080;

    #[test]
    fn admit_and_depart_round_trip() {
        let mut c = ClusterState::new(2);
        let a = c.admit(0, (GameId(1), R));
        let b = c.admit(0, (GameId(2), R));
        assert_ne!(a, b);
        assert_eq!(c.active_sessions(), 2);
        assert_eq!(c.server_load(0), 2);
        c.check_invariants();

        let gone = c.depart(a).unwrap();
        assert_eq!(gone.server, 0);
        assert_eq!(gone.placement.0, GameId(1));
        assert_eq!(c.active_sessions(), 1);
        // Departing twice is a no-op, not a crash.
        assert!(c.depart(a).is_none());
        c.check_invariants();
    }

    #[test]
    fn occupancy_reflects_sessions() {
        let mut c = ClusterState::new(3);
        c.admit(1, (GameId(4), R));
        c.admit(2, (GameId(5), R));
        assert!(c.members(0).is_empty());
        assert_eq!(c.members(1), &[(GameId(4), R)]);
        assert_eq!(c.members(2), &[(GameId(5), R)]);
        assert_eq!(OccupancyView::n_servers(&c), 3);
    }

    #[test]
    fn default_id_stream_is_sequential_from_one() {
        let mut c = ClusterState::new(2);
        assert_eq!(c.admit(0, (GameId(1), R)), 1);
        assert_eq!(c.admit(1, (GameId(2), R)), 2);
        assert_eq!(c.admit(0, (GameId(3), R)), 3);
    }

    #[test]
    fn partition_is_contiguous_and_its_id_streams_route_back() {
        let shape = |n, k| -> Vec<(usize, usize)> {
            let shards = Shard::partition(n, k).unwrap();
            shards
                .iter()
                .map(|s| (s.base, s.cluster.n_servers()))
                .collect()
        };
        assert_eq!(shape(5, 3), [(0, 2), (2, 2), (4, 1)]);
        assert_eq!(shape(3, 8), [(0, 1), (1, 1), (2, 1)]);
        assert_eq!(shape(4, 0), [(0, 4)]);
        let err = Shard::partition(0, 1).err().expect("empty fleet");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let mut shards = Shard::partition(3, 3).unwrap();
        for (s, shard) in shards.iter_mut().enumerate() {
            for g in 0..2u32 {
                let id = shard.cluster.admit(0, (GameId(10 * s as u32 + g), R));
                assert_eq!(shard_of_session(id, 3), s, "id {id} routes to its shard");
            }
            shard.cluster.check_invariants();
        }
        // Shard 0 mints 1, 4; shard 1 mints 2, 5; shard 2 mints 3, 6.
        let cluster = &shards[1].cluster;
        assert_eq!(cluster.lookup(2).map(|p| p.placement.0), Some(GameId(10)));
        assert!(cluster.lookup(1).is_none());
    }

    #[test]
    #[should_panic(expected = "full")]
    fn admitting_past_capacity_panics() {
        let mut c = ClusterState::new(1);
        for g in 0..=MAX_PER_SERVER as u32 {
            c.admit(0, (GameId(g), R));
        }
    }

    #[test]
    #[should_panic(expected = "already on server")]
    fn admitting_duplicate_game_panics() {
        let mut c = ClusterState::new(1);
        c.admit(0, (GameId(9), R));
        c.admit(0, (GameId(9), R));
    }
}
