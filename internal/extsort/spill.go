package extsort

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
)

// SpillFile is an append-only byte store that stays in memory until it
// outgrows its limit, then moves to a temp file and appends there. It is the
// streamed build's one spill file: sorted runs (the sorters' and the lint
// column's), scan chunks, shard payloads, observation columns and index
// arrays all write through it, and a later step reads them back, possibly
// more than once. A spill that never outgrows its limit never touches the
// file system and is never hashed; once on disk, a running digest taken at
// write time is checked on every read, so bytes that rot in between fail
// explicitly instead of corrupting the output. It implements io.Writer.
type SpillFile struct {
	dir, pattern string
	limit        int64
	n            int64 // bytes written

	// In memory: blocks filled in order, each twice the size of the last
	// up to maxBlock, so growing never copies what is already held and
	// leaves at most one block's spare room.
	mem [][]byte

	// Set once the spill has moved to disk; w is dropped again by Seal.
	f *os.File
	w *bufio.Writer
	h hash.Hash

	sealed bool
	err    error
}

// Memory block sizes: the first block, and the cap the doubling stops at.
const (
	minBlock = 4 << 10
	maxBlock = 64 << 10
)

// NewSpillFile returns an empty spill that holds up to limit bytes in
// memory before moving to a file created in dir ("" means the OS temp dir)
// with the os.CreateTemp pattern.
func NewSpillFile(dir, pattern string, limit int64) *SpillFile {
	return &SpillFile{dir: dir, pattern: pattern, limit: limit}
}

// Write appends to the spill. Errors are sticky.
func (s *SpillFile) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.sealed {
		return 0, fmt.Errorf("extsort: write to a sealed spill")
	}
	if s.f == nil {
		if s.n+int64(len(p)) <= s.limit {
			appendMem(s, p)
			return len(p), nil
		}
		if err := s.toDisk(); err != nil {
			return 0, err
		}
	}
	n, err := s.w.Write(p)
	s.h.Write(p[:n])
	s.n += int64(n)
	if err != nil {
		s.err = fmt.Errorf("extsort: spill write: %w", err)
	}
	return n, s.err
}

// WriteString appends str like Write([]byte(str)), without converting it.
func (s *SpillFile) WriteString(str string) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.sealed {
		return 0, fmt.Errorf("extsort: write to a sealed spill")
	}
	if s.f == nil {
		if s.n+int64(len(str)) <= s.limit {
			appendMem(s, str)
			return len(str), nil
		}
		if err := s.toDisk(); err != nil {
			return 0, err
		}
	}
	// On disk the digest needs the bytes, so each piece is copied into the
	// file writer's free buffer space and written, and hashed, from there.
	n := 0
	for n < len(str) {
		if s.w.Available() == 0 {
			if err := s.w.Flush(); err != nil {
				s.err = fmt.Errorf("extsort: spill write: %w", err)
				return n, s.err
			}
		}
		piece := append(s.w.AvailableBuffer(), str[n:n+min(len(str)-n, s.w.Available())]...)
		m, err := s.Write(piece)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteBlock appends b like Write, but a spill still in memory keeps b
// itself as its next block instead of copying it, so the caller must not
// touch b again. Later writes never reach into b's spare capacity.
func (s *SpillFile) WriteBlock(b []byte) (int, error) {
	if s.f != nil || s.err != nil || s.sealed || s.n+int64(len(b)) > s.limit {
		return s.Write(b)
	}
	s.mem = append(s.mem, b[:len(b):len(b)])
	s.n += int64(len(b))
	return len(b), nil
}

// appendMem copies p into the memory blocks, opening the next block when
// the last is full. A block never reaches past the limit.
func appendMem[T string | []byte](s *SpillFile, p T) {
	s.n += int64(len(p))
	for len(p) > 0 {
		k := len(s.mem)
		if k == 0 || len(s.mem[k-1]) == cap(s.mem[k-1]) {
			size := minBlock
			if k > 0 {
				size = min(2*cap(s.mem[k-1]), maxBlock)
			}
			size = int(min(int64(size), s.limit-s.n+int64(len(p))))
			s.mem = append(s.mem, make([]byte, 0, size))
			k++
		}
		b := s.mem[k-1]
		m := copy(b[len(b):cap(b)], p)
		s.mem[k-1] = b[:len(b)+m]
		p = p[m:]
	}
}

// toDisk creates the spill's file and moves the in-memory bytes into it.
func (s *SpillFile) toDisk() error {
	f, err := os.CreateTemp(s.dir, s.pattern)
	if err != nil {
		s.err = fmt.Errorf("extsort: create spill file: %w", err)
		return s.err
	}
	s.f, s.w, s.h = f, bufio.NewWriterSize(f, 1<<16), sha256.New()
	mem := s.mem
	s.mem, s.n = nil, 0
	for _, b := range mem {
		if _, err := s.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Seal ends the writes: a spill on disk is flushed and its write buffer
// freed, which matters for spills that wait long, and many at once, before
// anyone reads them. The spill stays readable; any further Write fails.
func (s *SpillFile) Seal() error {
	if s.err != nil {
		return s.err
	}
	s.sealed = true
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		s.err = fmt.Errorf("extsort: spill flush: %w", err)
		return s.err
	}
	s.w = nil
	return nil
}

// OnDisk reports whether the spill has moved to its file.
func (s *SpillFile) OnDisk() bool { return s.f != nil }

// Len returns the number of bytes written so far.
func (s *SpillFile) Len() int64 { return s.n }

// Reader flushes pending writes and returns an independent reader over the
// full spill contents. Multiple readers may be taken; each streams from the
// start, and one over a file fails with an error instead of io.EOF if the
// bytes read back do not match the write-time digest. A reader over a file
// holds no buffer: each Read is one read of the file, so a caller that reads
// in small pieces buffers them itself, at the size it can afford. Writing
// after the first Reader call is a caller bug (the new bytes join
// subsequent readers but not earlier ones).
func (s *SpillFile) Reader() (io.Reader, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.f == nil {
		blocks := make([]io.Reader, len(s.mem))
		for i, b := range s.mem {
			blocks[i] = bytes.NewReader(b)
		}
		return io.MultiReader(blocks...), nil
	}
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			s.err = fmt.Errorf("extsort: spill flush: %w", err)
			return nil, s.err
		}
	}
	vr := &verifyReader{r: io.NewSectionReader(s.f, 0, s.n), h: sha256.New()}
	s.h.Sum(vr.want[:0])
	return vr, nil
}

// VerifyCopy streams the whole spill into w, checking bytes that went to
// disk against the digest taken as they were written.
func (s *SpillFile) VerifyCopy(w io.Writer) error {
	if s.err != nil {
		return s.err
	}
	if s.f == nil {
		for _, b := range s.mem {
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		return nil
	}
	rd, err := s.Reader()
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, rd); err != nil {
		return fmt.Errorf("extsort: spill copy: %w", err)
	}
	return nil
}

// Remove releases the spill's memory and closes and deletes its file, if it
// has one. Safe to call more than once.
func (s *SpillFile) Remove() error {
	s.mem = nil
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	path := s.f.Name()
	s.f = nil
	if rmErr := os.Remove(path); err == nil {
		err = rmErr
	}
	return err
}

// ReadEnd reads once past the last record a reader over a spill should
// hold, which is where a spill's digest is checked: nil means the spill
// ended there and its bytes held. A byte where the end should be is an
// error too.
func ReadEnd(r io.Reader) error {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != io.EOF {
		if err == nil {
			err = errors.New("extsort: trailing bytes after the last record")
		}
		return err
	}
	return nil
}

// verifyReader hashes what it reads and, at EOF, reports a digest mismatch
// as an error.
type verifyReader struct {
	r    io.Reader
	h    hash.Hash
	want [32]byte
}

func (v *verifyReader) Read(p []byte) (int, error) {
	n, err := v.r.Read(p)
	v.h.Write(p[:n])
	if err == io.EOF {
		var got [32]byte
		v.h.Sum(got[:0])
		if got != v.want {
			return n, fmt.Errorf("extsort: spill file digest mismatch (corrupt spill)")
		}
	}
	return n, err
}
