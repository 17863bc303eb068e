package core

// MaxParked lets the external test package bound the goroutines a silo may
// keep parked.
const MaxParked = maxParked

// MultiReply is the MultiKind reply whose slot i holds values[i], for the
// external package's wire tests.
func MultiReply(values []any) any {
	slots := make([]multiSlot, len(values))
	for i, v := range values {
		slots[i].Value = v
	}
	return multiReply{Slots: slots}
}
