package data

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Format selects the per-field encoding of the binary tuple file format.
type Format uint8

const (
	// FormatCompact stores numeric values as float32 and categorical codes
	// and the class label as int32: 4 bytes per field, matching the
	// 40-byte records of the paper's 9-attribute synthetic workload.
	// Values must be exactly representable as float32 (the synthetic
	// generator only emits integers below 2^24, which are).
	FormatCompact Format = 1
	// FormatWide stores every value as float64 and the class as int32.
	FormatWide Format = 2
)

const (
	fileMagic   = "BOATDATA"
	fileVersion = 1
)

// TupleSize returns the encoded size in bytes of one tuple of the schema
// under the format.
func (f Format) TupleSize(s *Schema) int {
	switch f {
	case FormatCompact:
		return 4*len(s.Attributes) + 4
	case FormatWide:
		return 8*len(s.Attributes) + 4
	default:
		return 0
	}
}

func (f Format) valid() bool { return f == FormatCompact || f == FormatWide }

// encodeTuple appends the encoding of t to buf.
func encodeTuple(buf []byte, f Format, t Tuple) []byte {
	switch f {
	case FormatCompact:
		for _, v := range t.Values {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	default:
		for _, v := range t.Values {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(t.Class)))
}

// decodeTuple decodes one tuple from buf into dst (whose Values slice must
// have the schema arity).
func decodeTuple(buf []byte, f Format, dst *Tuple) {
	switch f {
	case FormatCompact:
		for i := range dst.Values {
			bits := binary.LittleEndian.Uint32(buf[4*i:])
			dst.Values[i] = float64(math.Float32frombits(bits))
		}
		dst.Class = int(int32(binary.LittleEndian.Uint32(buf[4*len(dst.Values):])))
	default:
		for i := range dst.Values {
			bits := binary.LittleEndian.Uint64(buf[8*i:])
			dst.Values[i] = math.Float64frombits(bits)
		}
		dst.Class = int(int32(binary.LittleEndian.Uint32(buf[8*len(dst.Values):])))
	}
}

// AppendTuple appends the binary encoding of t (in the given format) to
// buf and returns the extended slice. Exported for embedding tuple blocks
// in other streams (model persistence).
func AppendTuple(buf []byte, f Format, t Tuple) []byte {
	return encodeTuple(buf, f, t)
}

// DecodeTupleInto decodes one tuple from buf into dst, whose Values slice
// must already have the schema arity. buf must hold at least
// f.TupleSize(schema) bytes.
func DecodeTupleInto(buf []byte, f Format, dst *Tuple) {
	decodeTuple(buf, f, dst)
}

// appendSchema appends the self-describing schema encoding shared by the
// row and columnar file headers: class count, attribute count, and the
// attribute list.
func appendSchema(buf []byte, s *Schema) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.ClassCount))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Attributes)))
	for _, a := range s.Attributes {
		buf = append(buf, byte(a.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Cardinality))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Name)))
		buf = append(buf, a.Name...)
	}
	return buf
}

// readSchema parses the schema encoding emitted by appendSchema.
func readSchema(r io.Reader) (*Schema, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("data: reading schema: %w", err)
	}
	classCount := int(binary.LittleEndian.Uint32(fixed[0:]))
	nAttrs := int(binary.LittleEndian.Uint32(fixed[4:]))
	if nAttrs <= 0 || nAttrs > 1<<16 {
		return nil, fmt.Errorf("data: implausible attribute count %d", nAttrs)
	}
	attrs := make([]Attribute, nAttrs)
	for i := range attrs {
		var meta [9]byte
		if _, err := io.ReadFull(r, meta[:]); err != nil {
			return nil, fmt.Errorf("data: reading attribute %d: %w", i, err)
		}
		attrs[i].Kind = Kind(meta[0])
		attrs[i].Cardinality = int(binary.LittleEndian.Uint32(meta[1:]))
		nameLen := int(binary.LittleEndian.Uint32(meta[5:]))
		if nameLen > 1<<12 {
			return nil, fmt.Errorf("data: implausible attribute name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("data: reading attribute %d name: %w", i, err)
		}
		attrs[i].Name = string(name)
	}
	return NewSchema(attrs, classCount)
}

// writeHeader emits the self-describing file header: magic, version,
// format, class count, and the attribute list.
func writeHeader(w io.Writer, f Format, s *Schema) error {
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return err
	}
	hdr := append([]byte(nil), byte(fileVersion), byte(f))
	hdr = appendSchema(hdr, s)
	_, err := w.Write(hdr)
	return err
}

// readHeader parses a file header and returns the format and schema.
func readHeader(r io.Reader) (Format, *Schema, error) {
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, nil, fmt.Errorf("data: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return 0, nil, errors.New("data: not a BOAT data file (bad magic)")
	}
	var fixed [2]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, nil, fmt.Errorf("data: reading header: %w", err)
	}
	if fixed[0] != fileVersion {
		return 0, nil, fmt.Errorf("data: unsupported file version %d", fixed[0])
	}
	f := Format(fixed[1])
	if !f.valid() {
		return 0, nil, fmt.Errorf("data: unknown format %d", fixed[1])
	}
	schema, err := readSchema(r)
	if err != nil {
		return 0, nil, err
	}
	return f, schema, nil
}

// ---------------------------------------------------------------------------
// Writer

// FileWriter streams tuples into a binary dataset file.
type FileWriter struct {
	f      *os.File
	w      *bufio.Writer
	fmt    Format
	schema *Schema
	buf    []byte
	n      int64
	closed bool
}

// CreateFile creates (truncating) a dataset file at path.
func CreateFile(path string, schema *Schema, format Format) (*FileWriter, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if !format.valid() {
		return nil, fmt.Errorf("data: invalid format %d", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := writeHeader(w, format, schema); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &FileWriter{f: f, w: w, fmt: format, schema: schema}, nil
}

// Append writes one tuple.
func (fw *FileWriter) Append(t Tuple) error {
	if fw.closed {
		return errors.New("data: append to closed writer")
	}
	if len(t.Values) != len(fw.schema.Attributes) {
		return ErrSchemaMismatch
	}
	fw.buf = encodeTuple(fw.buf[:0], fw.fmt, t)
	if _, err := fw.w.Write(fw.buf); err != nil {
		return err
	}
	fw.n++
	return nil
}

// Count returns the number of tuples appended so far.
func (fw *FileWriter) Count() int64 { return fw.n }

// Close flushes and closes the file.
func (fw *FileWriter) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	if err := fw.w.Flush(); err != nil {
		fw.f.Close()
		return err
	}
	return fw.f.Close()
}

// WriteFile materializes all tuples of src into a dataset file at path.
func WriteFile(path string, src Source, format Format) (int64, error) {
	fw, err := CreateFile(path, src.Schema(), format)
	if err != nil {
		return 0, err
	}
	if err := ForEach(src, fw.Append); err != nil {
		fw.Close()
		os.Remove(path)
		return 0, err
	}
	n := fw.Count()
	if err := fw.Close(); err != nil {
		os.Remove(path)
		return 0, err
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// FileSource

// FileSource is a Source backed by a dataset file created by FileWriter.
// Every scan opens a fresh sequential pass over the file.
type FileSource struct {
	path      string
	format    Format
	schema    *Schema
	headerLen int64
	count     int64
}

// OpenFile opens a dataset file, validating its header and computing the
// tuple count from the file size.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	format, schema, err := readHeader(br)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Header length = current file offset minus what remains buffered.
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	headerLen := pos - int64(br.Buffered())
	tupleSize := int64(format.TupleSize(schema))
	body := st.Size() - headerLen
	if body%tupleSize != 0 {
		return nil, fmt.Errorf("data: %s: truncated file (body %d bytes, tuple size %d)",
			path, body, tupleSize)
	}
	return &FileSource{
		path:      path,
		format:    format,
		schema:    schema,
		headerLen: headerLen,
		count:     body / tupleSize,
	}, nil
}

// Path returns the backing file path.
func (fs *FileSource) Path() string { return fs.path }

// Format returns the file's field encoding.
func (fs *FileSource) Format() Format { return fs.format }

// Schema implements Source.
func (fs *FileSource) Schema() *Schema { return fs.schema }

// Count implements Source.
func (fs *FileSource) Count() (int64, bool) { return fs.count, true }

// SizeBytes returns the total encoded size of the tuple payload.
func (fs *FileSource) SizeBytes() int64 {
	return fs.count * int64(fs.format.TupleSize(fs.schema))
}

// ScanChunks implements Source: records are decoded from the raw
// byte stream directly into the destination chunk's columns, never
// materializing row-major Tuples at all.
func (fs *FileSource) ScanChunks() (ChunkScanner, error) {
	f, err := os.Open(fs.path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(fs.headerLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &fileChunkScanner{
		c:         f,
		r:         bufio.NewReaderSize(f, 1<<18),
		format:    fs.format,
		tupleSize: fs.format.TupleSize(fs.schema),
		remaining: fs.count,
	}, nil
}

// fileChunkScanner decodes fixed-size records straight into chunk columns.
// c, when non-nil, is closed with the scanner (the underlying file
// handle); the spill path also feeds it stitched readers (durable file
// prefix plus the in-memory write buffer), which own no handle.
type fileChunkScanner struct {
	c         io.Closer
	r         *bufio.Reader
	format    Format
	tupleSize int
	remaining int64
	raw       []byte
}

func (s *fileChunkScanner) NextChunk(dst *Chunk) error {
	if s.remaining == 0 {
		return io.EOF
	}
	n := int64(dst.Cap() - dst.Len())
	if n > s.remaining {
		n = s.remaining
	}
	if n <= 0 {
		return nil
	}
	want := int(n) * s.tupleSize
	if cap(s.raw) < want {
		s.raw = make([]byte, want)
	}
	raw := s.raw[:want]
	if _, err := io.ReadFull(s.r, raw); err != nil {
		return fmt.Errorf("data: scan read: %w", err)
	}
	for i := int64(0); i < n; i++ {
		decodeChunkRow(raw[int(i)*s.tupleSize:], s.format, dst)
	}
	s.remaining -= n
	return nil
}

func (s *fileChunkScanner) Close() error {
	if s.c == nil {
		return nil
	}
	err := s.c.Close()
	s.c = nil
	return err
}

// decodeChunkRow decodes one encoded record into the next row of c
// (which must not be full).
func decodeChunkRow(buf []byte, f Format, c *Chunk) {
	r := c.n
	switch f {
	case FormatCompact:
		for a := 0; a < c.width; a++ {
			bits := binary.LittleEndian.Uint32(buf[4*a:])
			c.vals[a*c.stride+r] = float64(math.Float32frombits(bits))
		}
		c.class[r] = int32(binary.LittleEndian.Uint32(buf[4*c.width:]))
	default:
		for a := 0; a < c.width; a++ {
			bits := binary.LittleEndian.Uint64(buf[8*a:])
			c.vals[a*c.stride+r] = math.Float64frombits(bits)
		}
		c.class[r] = int32(binary.LittleEndian.Uint32(buf[8*c.width:]))
	}
	c.n++
}

// encodeChunkRow appends the encoding of row r of c to buf (the chunked
// counterpart of encodeTuple, used by the spill path).
func encodeChunkRow(buf []byte, f Format, c *Chunk, r int) []byte {
	switch f {
	case FormatCompact:
		for a := 0; a < c.width; a++ {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(c.vals[a*c.stride+r])))
		}
	default:
		for a := 0; a < c.width; a++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.vals[a*c.stride+r]))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(c.class[r]))
}
