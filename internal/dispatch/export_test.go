package dispatch

// LiveEntries returns the sizes of the coordinator's per-task maps: live
// tasks by content key, and leases held summed over the registered
// workers. Tests only.
func (c *Coordinator) LiveEntries() (tasks, inflight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		inflight += len(w.inflight)
	}
	return len(c.byKey), inflight
}
