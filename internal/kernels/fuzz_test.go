package kernels

import (
	"bytes"
	"testing"
)

// FuzzKernelChunking checks, for every registered kernel, the two
// properties migration rests on: however the stream is split into chunks
// the result is the unsplit run's, and a Checkpoint taken mid-stream at a
// split, restored into a fresh kernel that takes the remaining chunks,
// finishes to that result too. op picks a kernelCases entry; each byte of
// splits is a chunk length, cycled (0 reads as 256).
func FuzzKernelChunking(f *testing.F) {
	cases := kernelCases()
	covered := make(map[string]bool)
	for _, tc := range cases {
		covered[tc.op] = true
	}
	for _, op := range Names() {
		if !covered[op] {
			f.Fatalf("kernelCases has no entry for registered kernel %q", op)
		}
	}
	text := bytes.Repeat([]byte("the needle \xab\xcd\xab\xcd in 16-pixel rows\n"), 40)
	ones := bytes.Repeat([]byte{0xFF}, sum8Block+100)
	for i := range cases {
		f.Add(uint8(i), text, []byte{1, 7, 64, 255})
		f.Add(uint8(i), ones, []byte{3, 0, 250})
		f.Add(uint8(i), text[:5], []byte{2})
		f.Add(uint8(i), []byte{}, []byte{})
	}
	f.Fuzz(func(t *testing.T, op uint8, data, splits []byte) {
		tc := cases[int(op)%len(cases)]
		want := runWhole(t, tc.op, tc.params, data)

		var pieces [][]byte
		for i, rest := 0, data; len(rest) > 0 && len(splits) > 0; i++ {
			n := int(splits[i%len(splits)])
			if n == 0 {
				n = 256
			}
			n = min(n, len(rest))
			pieces = append(pieces, rest[:n])
			rest = rest[n:]
		}
		if len(splits) == 0 {
			pieces = [][]byte{data}
		}
		feed := func(k Kernel, pieces [][]byte) {
			for _, p := range pieces {
				if err := k.Process(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		finish := func(k Kernel, how string) {
			got, err := k.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s (splits %v): %x, unsplit run %x", tc.op, how, splits, clip(got), clip(want))
			}
		}

		k, err := Start(tc.op, tc.params, nil)
		if err != nil {
			t.Fatal(err)
		}
		feed(k, pieces)
		finish(k, "split")

		if k, err = Start(tc.op, tc.params, nil); err != nil {
			t.Fatal(err)
		}
		mid := len(pieces) / 2
		feed(k, pieces[:mid])
		state, err := k.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if k, err = Start(tc.op, tc.params, state); err != nil {
			t.Fatalf("%s: restore after %d pieces: %v", tc.op, mid, err)
		}
		feed(k, pieces[mid:])
		finish(k, "migrated mid-stream")
	})
}
