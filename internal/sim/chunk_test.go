package sim

import "testing"

// TestChunkNeverReusesAnElement: every pointer New hands out still reads
// the value it was made with after many more, and buffers grow 1, 2, 4 …
// up to 64 elements, so slack never exceeds min(handed out, 63).
func TestChunkNeverReusesAnElement(t *testing.T) {
	var c Chunk[int]
	var got []*int
	seen := map[*int]bool{}
	for i := range 1000 {
		p := c.New(i)
		if seen[p] {
			t.Fatalf("element %d handed out twice", i)
		}
		seen[p] = true
		got = append(got, p)
		if slack := cap(c.buf) - len(c.buf); slack > min(i+1, chunkMax-1) {
			t.Fatalf("after %d values %d slots are slack", i+1, slack)
		}
	}
	for i, p := range got {
		if *p != i {
			t.Fatalf("value %d reads %d", i, *p)
		}
	}
	if cap(c.buf) != chunkMax {
		t.Fatalf("buffer of %d elements, want %d", cap(c.buf), chunkMax)
	}
}
