//! Consistent registry: every member of the zoo table appears on every leg.
zoo! {
    pub enum Kind {
        Lru(Lru) = "lru" => Lru::new(),
        Fifo(Fifo) = "fifo" => Fifo::new(),
    }
}
