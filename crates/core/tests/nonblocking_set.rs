//! Which product handlers a reactor may run on its event loop.
//!
//! `Service::nonblocking` is a promise — no file I/O, no condvar, no
//! lock held across either — that a service makes per method, after its
//! author read the handler. This table is the whole promise, written
//! down once: a handler that later grows a journal append has to move
//! itself off the loop, here, in the same diff.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::messages::method;
use blobseer_rpc::{AdmissionControlled, AdmissionGate, AdmissionOptions, Service};
use std::sync::Arc;

/// Every method constant, and whether its handler cannot block.
const TABLE: [(u16, bool); 18] = [
    // Data provider: a get is an index probe and a refcount; puts and
    // removes append, commit and pass the maintenance gate.
    (method::PUT_PAGE, false),
    (method::GET_PAGE, true),
    (method::REMOVE_PAGE, false),
    (method::PROVIDER_STATS, false),
    // Provider manager: planning is lock-free, a heartbeat is atomics.
    (method::REGISTER_PROVIDER, false),
    (method::HEARTBEAT, true),
    (method::PLAN_WRITE, true),
    (method::LIST_PROVIDERS, false),
    // Metadata provider: gets probe the in-memory store; the rest is
    // write-ahead and may compact the journal.
    (method::META_PUT, false),
    (method::META_PUT_BATCH, false),
    (method::META_GET_BATCH, true),
    (method::META_REMOVE_BATCH, false),
    // Version manager: registry reads; the rest journals, lingers as a
    // grant leader or publishes in order.
    (method::CREATE_BLOB, false),
    (method::GET_BLOB, true),
    (method::GET_LATEST, true),
    (method::REQUEST_VERSION, false),
    (method::COMPLETE_WRITE, false),
    (method::GC_PLAN, false),
];

/// `svc` answers the table's verdict for the methods it owns (by the
/// method id's high byte) and `false` for everything else.
fn assert_owns(svc: &dyn Service, owned: &[u16]) {
    for (m, cannot_block) in TABLE {
        let want = cannot_block && owned.contains(&(m >> 8));
        assert_eq!(svc.nonblocking(m), want, "{}: method {m:#06x}", svc.name());
    }
    assert!(!svc.nonblocking(0x7777), "{}: unknown method", svc.name());
}

#[test]
fn the_nonblocking_set_is_exactly_the_table() {
    // Volatile services (memory backend) and journaled ones (mmap: page
    // log, `WalMeta`, version journal) make the same promise — the gets
    // never touch the journal.
    for config in [
        DeploymentConfig::functional(2),
        DeploymentConfig::functional_mmap(2),
    ] {
        let d = Deployment::build(config);
        let node = &d.storage[0];
        assert_owns(node.as_ref(), &[0x01, 0x03]);
        assert_owns(node.data().as_ref(), &[0x01]);
        assert_owns(node.meta().as_ref(), &[0x03]);
        assert_owns(d.manager.as_ref(), &[0x02]);
        assert_owns(d.vm.as_ref(), &[0x04]);

        // An admission gate can make any request wait for a permit, so the
        // decorator keeps the default: everything on the dispatch pool.
        let gate = Arc::new(AdmissionGate::new(AdmissionOptions::default()));
        let gated = AdmissionControlled::new(Arc::clone(node), gate);
        assert_owns(&gated, &[]);
    }
}
