// Package lockorder exercises the mutex-acquisition-order checker: lock
// classes acquired in both orders (directly or through a call chain) are
// cycles; consistent orders and release-before-acquire sequences are not.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// ab commits to the order A → B.
func ab(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want "lock order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

// ba commits to the reverse order B → A: together with ab, a deadlock.
func ba(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want "lock order cycle"
	a.mu.Unlock()
	b.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

// cd1 and cd2 agree on C → D: consistent, no finding.
func cd1(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

func cd2(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

// release drops D before taking C — no D → C edge, so no cycle with cd1.
func release(c *C, d *D) {
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

// lockF acquires F on behalf of callers; ef calls it while holding E, so
// the edge E → F exists only transitively through the call graph.
func lockF(f *F) {
	f.mu.Lock() // want "lock order cycle"
	f.mu.Unlock()
}

func ef(e *E, f *F) {
	e.mu.Lock()
	lockF(f)
	e.mu.Unlock()
}

// fe commits to F → E directly: a cycle with ef's transitive E → F.
func fe(e *E, f *F) {
	f.mu.Lock()
	e.mu.Lock() // want "lock order cycle"
	e.mu.Unlock()
	f.mu.Unlock()
}

type S struct{ mu sync.Mutex }

// nest locks two instances of the same class with no canonical order: the
// classic AB/BA self-deadlock, a cycle of length one on the class.
func nest(a, b *S) {
	a.mu.Lock()
	b.mu.Lock() // want "lock order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

type G struct{ mu sync.Mutex }
type H struct{ mu sync.Mutex }

// gh commits to G → H: the early return releases G on its own path only,
// so G is still held where H is taken.
func gh(g *G, h *H, stop bool) {
	g.mu.Lock()
	if stop {
		g.mu.Unlock()
		return
	}
	h.mu.Lock() // want "lock order cycle"
	h.mu.Unlock()
	g.mu.Unlock()
}

// hg commits to H → G: together with gh, a deadlock.
func hg(g *G, h *H) {
	h.mu.Lock()
	g.mu.Lock() // want "lock order cycle"
	g.mu.Unlock()
	h.mu.Unlock()
}
