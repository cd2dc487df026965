//! The fixed shape of `lock_order_bad`: the outer function holds the
//! lower-ranked `lock_queue` (rank 1) and the callee chain acquires the
//! higher-ranked `lock_entries` (rank 4), and `publish` takes the
//! install lock (rank 2) before the snapshot slot (rank 3) — the
//! declared order.

pub struct Svc {
    state: State,
}

impl Svc {
    fn load(&self) {
        let entries = self.state.lock_entries();
        drop(entries);
    }

    fn touch(&self) {
        self.load();
    }

    fn drain(&self) {
        let q = self.state.lock_queue();
        self.touch();
        drop(q);
    }

    fn publish(&self) {
        let writer = self.state.lock_writer();
        let current = self.state.lock_current();
        drop(current);
        drop(writer);
    }
}
