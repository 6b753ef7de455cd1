//! Live fleet state: which session runs which game on which server.
//!
//! The daemon mutates this under a single mutex — placement must read the
//! occupancy, pick a server and insert atomically, or two concurrent
//! `Place` requests could both land on a server's last slot.
//!
//! Session ids and placements are stored in parallel per-server arrays so
//! the placement scorer can borrow each server's `&[Placement]` directly
//! (via [`gaugur_sched::OccupancyView`]) instead of cloning the fleet into
//! a `Vec<Vec<Placement>>` on every request.

use gaugur_core::Placement;
use gaugur_sched::maxfps::MAX_PER_SERVER;
use gaugur_sched::OccupancyView;
use std::collections::HashMap;

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
    fn sharded_id_streams_interleave_and_route_back() {
        let stride = 3u64;
        let mut shards: Vec<ClusterState> = (0..stride)
            .map(|s| ClusterState::new_sharded(1, s, stride))
            .collect();
        for (s, shard) in shards.iter_mut().enumerate() {
            for g in 0..2u32 {
                let id = shard.admit(0, (GameId(10 * s as u32 + g), R));
                assert_eq!((id - 1) % stride, s as u64, "id {id} routes to its shard");
            }
            shard.check_invariants();
        }
        // Shard 0 mints 1, 4; shard 1 mints 2, 5; shard 2 mints 3, 6.
        assert_eq!(shards[1].lookup(2).map(|p| p.placement.0), Some(GameId(10)));
        assert!(shards[1].lookup(1).is_none());
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
