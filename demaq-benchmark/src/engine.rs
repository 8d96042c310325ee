//! One face for the two deployments the workloads run: a single `Server`
//! and a `ShardedServer`. Only public engine API is called here.

use demaq::{Server, ShardedServer};
use demaq_obs::Obs;
use demaq_store::{MessageStore, MsgId};
use demaq_xquery::Atomic;
use std::sync::Arc;

/// One generated input message.
#[derive(Debug, Clone)]
pub struct Input {
    pub queue: &'static str,
    pub xml: String,
    /// Explicit property values (the sharded workload's slicing key).
    pub props: Vec<(String, Atomic)>,
}

pub enum Engine {
    Single(Box<Server>),
    Sharded(ShardedServer),
}

impl Engine {
    pub fn feed(&self, input: &Input) -> demaq::Result<MsgId> {
        match self {
            Engine::Single(s) => {
                s.enqueue_external_with_props(input.queue, &input.xml, &input.props)
            }
            Engine::Sharded(s) => {
                s.enqueue_external_with_props(input.queue, &input.xml, &input.props)
            }
        }
    }

    /// Process everything schedulable; returns messages processed. The
    /// sharded deployment drains with one pinned worker per shard.
    pub fn drain(&self) -> demaq::Result<u64> {
        match self {
            Engine::Single(s) => s.run_until_idle(),
            Engine::Sharded(s) => s.process_all_parallel(1),
        }
    }

    pub fn servers(&self) -> Vec<&Server> {
        match self {
            Engine::Single(s) => vec![s],
            Engine::Sharded(s) => (0..s.num_shards()).map(|i| s.shard(i)).collect(),
        }
    }

    pub fn stores(&self) -> Vec<&Arc<MessageStore>> {
        self.servers().into_iter().map(Server::store).collect()
    }

    /// Retention GC on every store; returns messages purged.
    pub fn gc(&self) -> demaq::Result<usize> {
        match self {
            Engine::Single(s) => s.gc(),
            Engine::Sharded(s) => s.gc(),
        }
    }

    pub fn checkpoint(&self) -> demaq::Result<()> {
        Ok(self
            .stores()
            .into_iter()
            .try_for_each(|st| st.checkpoint())?)
    }

    /// GC then checkpoint: what `Server::maintenance()` does, in two
    /// calls so that the traced run can put a span around each.
    pub fn maintenance(&self) -> demaq::Result<usize> {
        let purged = self.gc()?;
        self.checkpoint()?;
        Ok(purged)
    }

    /// Bytes in the current WAL segments (they rotate at each checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        self.stores()
            .into_iter()
            .map(|s| s.wal_bytes_logged())
            .sum()
    }

    pub fn resident_payload_bytes(&self) -> u64 {
        self.stores()
            .into_iter()
            .map(|s| s.resident_payload_bytes())
            .sum()
    }

    pub fn queue_bodies(&self, queue: &str) -> demaq::Result<Vec<String>> {
        match self {
            Engine::Single(s) => s.queue_bodies(queue),
            Engine::Sharded(s) => s.queue_bodies(queue),
        }
    }

    /// Whether the store that allocated `id` still holds it.
    pub fn holds(&self, id: MsgId) -> bool {
        self.stores()
            .into_iter()
            .any(|s| s.message_meta(id).is_ok())
    }

    pub fn obs(&self) -> Arc<Obs> {
        match self {
            Engine::Single(s) => s.metrics(),
            Engine::Sharded(s) => s.metrics(),
        }
    }

    pub fn metrics_text(&self) -> String {
        match self {
            Engine::Single(s) => s.metrics_text(),
            Engine::Sharded(s) => s.metrics_text(),
        }
    }
}
