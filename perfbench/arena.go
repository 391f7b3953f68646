package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arena is memory outside the Go heap for the harness's bulk data —
// request texts and latency samples. The daemon shares the process
// with the harness, and the collector paces itself on the live heap:
// harness data on the heap would make the daemon collect less often
// than it does alone, and a growing sample buffer would make it
// collect less often as a run goes on. Arena memory holds no Go
// pointers and is never freed before the process exits.
type arena struct {
	buf []byte
	off int
}

// newArena maps size bytes of anonymous memory; pages are only
// backed once touched.
func newArena(size int) (*arena, error) {
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("arena: mmap %d bytes: %w", size, err)
	}
	return &arena{buf: buf}, nil
}

func (a *arena) take(n, align int) ([]byte, error) {
	a.off = (a.off + align - 1) &^ (align - 1)
	if a.off+n > len(a.buf) {
		return nil, fmt.Errorf("arena: %d bytes requested, %d of %d left", n, len(a.buf)-a.off, len(a.buf))
	}
	b := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return b, nil
}

// copyString copies s into the arena.
func (a *arena) copyString(s string) ([]byte, error) {
	dst, err := a.take(len(s), 1)
	if err != nil {
		return nil, err
	}
	copy(dst, s)
	return dst, nil
}

// int64s returns an empty slice with room for n values.
func (a *arena) int64s(n int) ([]int64, error) {
	b, err := a.take(8*n, 8)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)[:0:n], nil
}
