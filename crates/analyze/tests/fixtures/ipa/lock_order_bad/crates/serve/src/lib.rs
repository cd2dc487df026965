//! Lock-order inversion across a two-hop call chain: `drain` holds
//! `lock_entries` (rank 4) while `touch` → `requeue` acquires
//! `lock_queue` (rank 1) underneath it.

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
}
