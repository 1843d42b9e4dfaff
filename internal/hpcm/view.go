package hpcm

import "unsafe"

// The two unsafe views behind the typed segments (registry.go). The tree's
// one other unsafe is livemig's bytesOf, the same view for a paged region's
// row reads and writes; the two merge when livemig folds into hpcm. A
// numeric array moves as the bytes it already is — HPCM ships raw memory
// blocks behind a description of their type — so collection views it and
// restoration views it back; nothing is encoded. No third element type
// without a caller that registers one.

// word is an 8-byte element whose arrays move by reference.
type word interface{ float64 | int64 }

// bytesOf views s's backing array as bytes, nil for nil. hotalloc fails the
// tree if a copy or an encoder comes back into collection here.
//
//hot:path
func bytesOf[T word](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// wordsOf views b, whose length is a multiple of 8, as []T. ok is false when
// b is not 8-byte aligned: a *T must be (the unsafe.Pointer rules; some
// architectures fault on the load), so a misaligned buffer is never viewed.
//
//hot:path
func wordsOf[T word](b []byte) (s []T, ok bool) {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/8), true
}
