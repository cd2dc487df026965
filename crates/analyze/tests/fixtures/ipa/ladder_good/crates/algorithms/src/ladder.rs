//! The fixed shape of `ladder_bad`: every constructed variant is named
//! in the table's error → fall `match`, so no failure mode reaches the
//! walker unclassified.

/// Algorithm failures for the fixture ladder.
#[non_exhaustive]
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
        AlgorithmError::Timeout => Fall::Stop,
    }
}
