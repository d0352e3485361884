package network

import "fmt"

// KillFlag reports whether f's kill flag is raised.
func KillFlag(f *Fabric) bool { return f.killed }

// CheckOccupancy audits every router's occupancy masks and idle predicate
// and every NI's backlog word against the queues they summarize.
func CheckOccupancy(f *Fabric) error {
	for _, r := range f.Routers {
		if err := r.CheckOccupancy(); err != nil {
			return err
		}
	}
	for i, n := range f.NIs {
		var want uint64
		for v := range n.vcs {
			if !n.vcs[v].q.empty() {
				want |= 1 << uint(v)
			}
		}
		if n.backlog != want {
			return fmt.Errorf("network: NI %d backlog word %#x, queues say %#x", i, n.backlog, want)
		}
	}
	return nil
}
