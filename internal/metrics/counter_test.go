package metrics

import (
	"sync"
	"testing"
)

func TestCounterConcurrentAdds(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(2)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := g.Load(); got != 8000 {
		t.Errorf("gauge = %d, want 8000", got)
	}
	c.Add(5)
	if got := c.Load(); got != 8005 {
		t.Errorf("counter after Add = %d, want 8005", got)
	}
}
