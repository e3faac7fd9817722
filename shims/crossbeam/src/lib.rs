//! Empty. `gpa-parallel`'s job queue is a `std::sync::Mutex` over a
//! `VecDeque`, so nothing in the workspace uses this package. It is kept
//! only because the frozen serving benchmark's lock file
//! (`benchmark/Cargo.lock`) names it as a dependency of `gpa-parallel`;
//! it goes, with that lock entry, when the benchmark is next changed.
