package core

// MaxParked lets the external test package bound the goroutines a silo may
// keep parked.
const MaxParked = maxParked
