//! Enactment engines: `simple`, static `multi`, and the one dynamic engine
//! ([`engine`]) behind the dynamic, auto-scaling and hybrid planners.

pub mod dyn_auto_multi;
pub mod dyn_multi;
pub mod dynamic;
pub mod engine;
pub mod hybrid;
pub mod multi;
pub mod simple;

pub use dyn_auto_multi::DynAutoMulti;
pub use dyn_multi::DynMulti;
pub use hybrid::{ChannelQueueFactory, HybridMulti, QueueFactory};
pub use multi::Multi;
pub use simple::Simple;
