// Fixture: trips `lock-order` — acquires the rank-5 answer slot, then
// the rank-1 admission queue while the slot guard is still live, an
// inversion of the declared order. Never compiled.
pub fn inverted(ticket: &TicketInner, shared: &Shared) {
    let slot = ticket.lock_slot();
    let queue = shared.lock_queue();
    drop(queue);
    drop(slot);
}
