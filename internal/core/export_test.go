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

// ReplyValues is a MultiKind reply's slot values, in either form, and
// whether it is a decoded run, whose values it files as CallManyOf[any]
// does.
func ReplyValues(reply any) (values []any, run bool) {
	r := reply.(multiReply)
	if r.run == nil {
		for _, s := range r.Slots {
			values = append(values, s.Value)
		}
		return values, false
	}
	n := r.len()
	out := &typed[any]{ids: make([]ID, n), vals: make([]any, n)}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out.run(idx, r.run)
	return out.vals, true
}
