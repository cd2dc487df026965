//! A gap in the ladder table: `AlgorithmError::Timeout` is constructed
//! by `run` but missing from the table's error → fall `match` — the `_`
//! arm swallows it, so the walker would treat a new failure mode as a
//! deterministic stop without anyone having decided that.

/// Algorithm failures for the fixture ladder.
pub enum AlgorithmError {
    /// The artifact the rung needs is stale.
    Stale,
    /// The run outlived its budget.
    Timeout,
}

pub fn run(slow: bool) -> Result<(), AlgorithmError> {
    if slow {
        return Err(AlgorithmError::Timeout);
    }
    Err(AlgorithmError::Stale)
}

/// Where a failed rung sends the walk.
pub enum Fall {
    NextRung,
    Stop,
}

pub fn fall_of(e: &AlgorithmError) -> Fall {
    match e {
        AlgorithmError::Stale => Fall::NextRung,
        _ => Fall::Stop,
    }
}
