package chaos

// Timeline returns the scheduled transitions in scheduling order.
func (in *Injector) Timeline() []Event {
	return append([]Event(nil), in.timeline...)
}

// Down reports how many nodes the replay currently holds down.
func (r *Replay) Down() int { return len(r.down) }
