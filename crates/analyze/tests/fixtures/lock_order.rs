// Fixture: trips `lock-order` with a direct inversion — acquires the
// rank-5 answer slot, then the rank-1 admission queue while the slot
// guard is still live, inside one function. Never compiled.
pub fn inverted(ticket: &TicketInner, shared: &Shared) {
    let slot = ticket.lock_slot();
    let queue = shared.lock_queue();
    drop(queue);
    drop(slot);
}
