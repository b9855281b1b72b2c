//! Resolve-only stand-in: nothing the ledger builds compiles against it.
