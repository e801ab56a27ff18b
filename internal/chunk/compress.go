package chunk

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
	"weak"
)

// Compression selects the lossless codec applied to a chunk's serialized
// point payload before encryption. The paper's default is zlib, with the
// codec chosen per stream based on what compresses that data best (§4.1
// footnote 2); the varint delta encoding in MarshalPoints already acts as a
// domain-specific pre-pass.
type Compression uint8

const (
	// CompressionZlib applies RFC 1950 deflate. It is the zero value so
	// that it is the default, matching the paper ("with zlib as
	// default", §4.1).
	CompressionZlib Compression = iota
	// CompressionNone stores the serialized points as-is.
	CompressionNone
)

// String returns the canonical codec name.
func (c Compression) String() string {
	switch c {
	case CompressionNone:
		return "none"
	case CompressionZlib:
		return "zlib"
	default:
		return fmt.Sprintf("Compression(%d)", uint8(c))
	}
}

// ParseCompression converts a canonical codec name into a Compression.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "none":
		return CompressionNone, nil
	case "zlib":
		return CompressionZlib, nil
	}
	return 0, fmt.Errorf("chunk: unknown compression %q", s)
}

// maxDecompressed bounds decompression output to defend against
// decompression bombs from a malicious store.
const maxDecompressed = 64 << 20

// weakPool caches values between calls without keeping any of them alive
// across a garbage collection: it pools weak pointers, so a collection
// frees every idle value instead of sync.Pool's victim cache holding one
// per P through it. A zlib writer is ~800 KB of compressor state, which
// a plain sync.Pool would pin into every post-GC heap measurement.
type weakPool[T any] struct{ pool sync.Pool }

// get returns a cached value, or nil when the pool is empty or the
// collector already reclaimed what it held.
func (p *weakPool[T]) get() *T {
	if w, ok := p.pool.Get().(weak.Pointer[T]); ok {
		return w.Value()
	}
	return nil
}

// put caches v for a later get. The caller must be done with v.
func (p *weakPool[T]) put(v *T) { p.pool.Put(weak.Make(v)) }

// zlibWriters holds reset-able writers at zlib.DefaultCompression, the
// level zlib.NewWriter uses, so a reused writer emits the same bytes.
var zlibWriters weakPool[zlib.Writer]

// zlibReader pairs a reusable zlib reader with the bytes.Reader it reads
// from. The reader's concrete type is unexported, so the pool holds this
// wrapper.
type zlibReader struct {
	src bytes.Reader
	zr  io.ReadCloser // implements zlib.Resetter
}

var zlibReaders weakPool[zlibReader]

// Compress encodes data with the codec.
func Compress(c Compression, data []byte) ([]byte, error) {
	switch c {
	case CompressionNone:
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	case CompressionZlib:
		var buf bytes.Buffer
		zw := zlibWriters.get()
		if zw == nil {
			zw = zlib.NewWriter(&buf)
		} else {
			zw.Reset(&buf)
		}
		if _, err := zw.Write(data); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		zlibWriters.put(zw)
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("chunk: unknown compression %d", c)
	}
}

// Decompress reverses Compress.
func Decompress(c Compression, data []byte) ([]byte, error) {
	switch c {
	case CompressionNone:
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	case CompressionZlib:
		r := zlibReaders.get()
		if r == nil {
			r = new(zlibReader)
		}
		r.src.Reset(data)
		var err error
		if r.zr == nil {
			r.zr, err = zlib.NewReader(&r.src)
		} else {
			err = r.zr.(zlib.Resetter).Reset(&r.src, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("chunk: zlib: %w", err)
		}
		out, err := io.ReadAll(io.LimitReader(r.zr, maxDecompressed+1))
		r.zr.Close()
		if err != nil {
			return nil, fmt.Errorf("chunk: zlib: %w", err)
		}
		if len(out) > maxDecompressed {
			return nil, fmt.Errorf("chunk: decompressed payload exceeds %d bytes", maxDecompressed)
		}
		zlibReaders.put(r)
		return out, nil
	default:
		return nil, fmt.Errorf("chunk: unknown compression %d", c)
	}
}
