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

// Busy reports whether the actor id has an activation on one of rt's
// silos whose mailbox a worker still owns: a caller has its answer before
// the worker that ran the turn lets the mailbox go.
func Busy(rt *Runtime, id ID) bool {
	rt.mu.RLock()
	silos := make([]*Silo, 0, len(rt.silos))
	for _, s := range rt.silos {
		silos = append(silos, s)
	}
	rt.mu.RUnlock()
	for _, s := range silos {
		s.mu.Lock()
		a := s.catalog[id]
		s.mu.Unlock()
		if a != nil {
			a.box.mu.Lock()
			owned := a.box.owned
			a.box.mu.Unlock()
			if owned {
				return true
			}
		}
	}
	return false
}
