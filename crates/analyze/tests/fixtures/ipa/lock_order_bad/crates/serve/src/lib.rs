//! Two lock-order inversions: across a two-hop call chain, `drain`
//! holds `lock_entries` (rank 4) while `touch` → `requeue` acquires
//! `lock_queue` (rank 1) underneath it; directly, `publish` takes the
//! install lock `lock_writer` (rank 2) under the snapshot slot
//! `lock_current` (rank 3).

pub struct Svc {
    state: State,
}

impl Svc {
    fn requeue(&self) {
        let q = self.state.lock_queue();
        drop(q);
    }

    fn touch(&self) {
        self.requeue();
    }

    fn drain(&self) {
        let entries = self.state.lock_entries();
        self.touch();
        drop(entries);
    }

    fn publish(&self) {
        let current = self.state.lock_current();
        let writer = self.state.lock_writer();
        drop(writer);
        drop(current);
    }
}
