package kernels

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

func init() {
	Register("count", func() Kernel { return &patternCount{} })
	Register("wordcount", func() Kernel { return &wordCount{} })
}

// patternCount counts occurrences of a byte pattern (grep -c for a fixed
// string), handling matches that straddle chunk boundaries by carrying the
// last len(pattern)-1 bytes between calls. Result: count as uint64.
// Parameters: the raw pattern bytes.
type patternCount struct {
	pattern []byte
	tail    []byte
	count   uint64
}

func (*patternCount) Name() string             { return "count" }
func (*patternCount) ResultSize(uint64) uint64 { return 8 }

func (k *patternCount) Configure(params []byte) error {
	if len(params) == 0 {
		return fmt.Errorf("kernels: count requires a non-empty pattern")
	}
	k.pattern = append([]byte(nil), params...)
	return nil
}

func (k *patternCount) Process(chunk []byte) error {
	if len(k.pattern) == 0 {
		return fmt.Errorf("kernels: count not configured")
	}
	// A match either starts in the carried tail or in the chunk. The first
	// kind lies inside the seam — the tail plus the chunk's first
	// len(pattern)-1 bytes, built in the tail's own buffer — and the seam's
	// chunk part is too short to hold a match of the second kind, so the
	// two searches count every match once and the chunk is never copied.
	keep := len(k.pattern) - 1
	k.tail = append(k.tail, chunk[:min(keep, len(chunk))]...)
	k.count += countOverlapping(k.tail, k.pattern)
	k.count += countOverlapping(chunk, k.pattern)
	// Carry the stream's last len(pattern)-1 bytes for boundary matches.
	if len(chunk) >= keep {
		k.tail = append(k.tail[:0], chunk[len(chunk)-keep:]...)
	} else if n := len(k.tail) - keep; n > 0 {
		// A chunk shorter than the carry: the seam is the old tail plus
		// the whole chunk.
		k.tail = k.tail[:copy(k.tail, k.tail[n:])]
	}
	return nil
}

// countOverlapping counts the occurrences of pattern in buf, overlapping
// ones included.
func countOverlapping(buf, pattern []byte) uint64 {
	var n uint64
	for i := 0; ; {
		j := bytes.Index(buf[i:], pattern)
		if j < 0 {
			return n
		}
		n++
		i += j + 1
	}
}

func (k *patternCount) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutBytes("pattern", k.pattern)
	s.PutBytes("tail", k.tail)
	s.PutInt64("count", int64(k.count))
	return s.Encode(k.Name())
}

func (k *patternCount) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	pat, err := s.Bytes("pattern")
	if err != nil {
		return err
	}
	tail, err := s.Bytes("tail")
	if err != nil {
		return err
	}
	count, err := s.Int64("count")
	if err != nil {
		return err
	}
	k.pattern = append([]byte(nil), pat...)
	k.tail = append([]byte(nil), tail...)
	k.count = uint64(count)
	return nil
}

func (k *patternCount) Result() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, k.count)
	return out, nil
}

// CountResult decodes a count or wordcount kernel output.
func CountResult(out []byte) uint64 {
	if len(out) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(out)
}

// wordCount counts whitespace-separated words in a byte stream. Result:
// count as uint64.
type wordCount struct {
	count  uint64
	inWord bool
}

func (*wordCount) Name() string             { return "wordcount" }
func (*wordCount) Configure([]byte) error   { return nil }
func (*wordCount) ResultSize(uint64) uint64 { return 8 }

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f'
}

func (k *wordCount) Process(chunk []byte) error {
	in := k.inWord
	var n uint64
	for _, b := range chunk {
		if isSpace(b) {
			in = false
		} else if !in {
			in = true
			n++
		}
	}
	k.inWord = in
	k.count += n
	return nil
}

func (k *wordCount) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutInt64("count", int64(k.count))
	if k.inWord {
		s.PutInt64("inWord", 1)
	} else {
		s.PutInt64("inWord", 0)
	}
	return s.Encode(k.Name())
}

func (k *wordCount) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	count, err := s.Int64("count")
	if err != nil {
		return err
	}
	inWord, err := s.Int64("inWord")
	if err != nil {
		return err
	}
	k.count = uint64(count)
	k.inWord = inWord != 0
	return nil
}

func (k *wordCount) Result() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, k.count)
	return out, nil
}
