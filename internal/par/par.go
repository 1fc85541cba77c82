// Package par runs the parts of a flat pass on several goroutines.
package par

import "sync"

// Do runs do(i) for every i in [0, k), each on its own goroutine but the
// first, which runs on the caller's, and returns once all have. k is at
// least 1.
func Do(k int, do func(i int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go func() {
			defer wg.Done()
			do(i)
		}()
	}
	do(0)
	wg.Wait()
}
