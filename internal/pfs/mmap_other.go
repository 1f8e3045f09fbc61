//go:build !linux

package pfs

import (
	"errors"
	"os"
)

// mapFile is unavailable off Linux; ReadView copies through ReadAt instead.
func mapFile(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) error { return nil }
