//go:build !linux

package pfs

import (
	"errors"
	"os"
)

// mapFile is unavailable off Linux: ReadView copies through ReadAt instead,
// plain reads go by ReadRange, and write bodies are never landed.
func mapFile(*os.File, int64, bool) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) error { return nil }

func resident([]byte) bool { return false }
