package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"latenttruth/internal/model"
)

// Segment and record framing. A segment file is
//
//	header:  magic "LTWALSEG" | uint32 version | uint32 reserved
//	records: uint32 payloadLen | uint32 crc32c(payload) | payload
//
// and a record payload is
//
//	uint64 seq | uint32 nrows | nrows × (entity, attribute, source)
//
// where each string is uint32 len | bytes. A payload with nrows == 0 is a
// control record: the remainder of the payload is an opaque note the
// serving layer interprets (the refit markers that let log-shipped
// replicas replay the primary's refit schedule exactly). All integers are
// little-endian. The frame CRC is Castagnoli (CRC32C), the polynomial with
// hardware support on both amd64 and arm64.
//
// The same framing doubles as the replication wire format: GET
// /replication/wal streams records encoded by EncodeBatch and followers
// decode them with DecodeBatch, so the bytes a follower receives are the
// bytes it appends to its own log.
const (
	segMagic      = "LTWALSEG"
	segVersion    = 1
	segHeaderSize = 16
	recHeaderSize = 8
	// maxRecordBytes bounds a single record payload so that a corrupt
	// length field cannot drive a multi-gigabyte allocation during scan.
	maxRecordBytes = 1 << 30
)

// castagnoli is the CRC32C table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch is one durably logged record: the rows a single Append call
// accepted, under the sequence number the log assigned to it. A batch with
// no rows is a control record and Note carries its payload (see the
// framing comment above); claim batches always have rows and an empty
// Note.
type Batch struct {
	Seq  uint64
	Rows []model.Row
	Note string
}

// IsControl reports whether b is a control record rather than a claim
// batch.
func (b Batch) IsControl() bool { return len(b.Rows) == 0 }

// EncodeBatch appends the log's CRC32C record framing for b to buf and
// returns the extended slice. The encoding is byte-identical to what
// Append writes, so replication can ship records verbatim.
func EncodeBatch(buf []byte, b Batch) []byte {
	return appendRecord(buf, b.Seq, b.Rows, b.Note)
}

// DecodeBatch reads one framed record from r. It returns io.EOF at a clean
// end of stream (no bytes before the next record) and an error for a
// truncated or corrupt frame. It is the streaming counterpart of the
// segment scan, for replication followers consuming records over a
// connection instead of a file.
func DecodeBatch(r io.Reader) (Batch, error) {
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Batch{}, io.EOF
		}
		return Batch{}, fmt.Errorf("wal: decoding record header: %w", err)
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[:]))
	if payloadLen < 12 || payloadLen > maxRecordBytes {
		return Batch{}, fmt.Errorf("wal: decoding record: bad payload length %d", payloadLen)
	}
	// The length is unverified until the CRC checks out, so the frame
	// buffer grows with the bytes actually read rather than being sized
	// from the header up front.
	var frame bytes.Buffer
	frame.Write(hdr[:])
	if _, err := io.CopyN(&frame, r, int64(payloadLen)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Batch{}, fmt.Errorf("wal: decoding record payload: %w", err)
	}
	b, _, st := parseRecord(frame.Bytes(), 0)
	if st != recOK {
		return Batch{}, fmt.Errorf("wal: decoding record: corrupt frame")
	}
	return b, nil
}

// appendSegmentHeader appends a fresh segment header to buf.
func appendSegmentHeader(buf []byte) []byte {
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	return buf
}

// checkSegmentHeader validates the first segHeaderSize bytes of a segment.
func checkSegmentHeader(data []byte) error {
	if len(data) < segHeaderSize {
		return fmt.Errorf("wal: segment shorter than its header (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("wal: bad segment magic %q", data[:len(segMagic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != segVersion {
		return fmt.Errorf("wal: unsupported segment version %d", v)
	}
	return nil
}

// appendRecord appends the framed record for (seq, rows, note) to buf. A
// note is only encoded for a rowless control record; claim batches never
// carry one.
func appendRecord(buf []byte, seq uint64, rows []model.Row, note string) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	if len(rows) == 0 {
		buf = append(buf, note...)
	}
	for _, r := range rows {
		for _, s := range [3]string{r.Entity, r.Attribute, r.Source} {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	payload := buf[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// recStatus classifies the outcome of parsing one record.
type recStatus int

const (
	// recOK: a complete, CRC-clean, well-formed record.
	recOK recStatus = iota
	// recEnd: an all-zero frame header — the untouched preallocated region
	// of the active segment, i.e. the clean end of the data. (A record
	// whose header was only partially written before a crash also reads as
	// zeros, but such a record's write(2) never returned, so it was never
	// acknowledged — treating it as the end loses nothing acked.)
	recEnd
	// recTorn: the data ends mid-record — the signature of a crash during
	// an append. Everything before the record is intact.
	recTorn
	// recCorrupt: the frame is complete but the CRC or the payload
	// structure is wrong — bit rot or an overwritten region.
	recCorrupt
)

// parseRecord parses the record starting at data[off:]. It returns the
// decoded batch, the offset just past the record, and the classification;
// batch is meaningful only for recOK.
func parseRecord(data []byte, off int) (Batch, int, recStatus) {
	rest := data[off:]
	if len(rest) < recHeaderSize {
		return Batch{}, off, recTorn
	}
	payloadLen := int(binary.LittleEndian.Uint32(rest))
	if payloadLen == 0 {
		if binary.LittleEndian.Uint32(rest[4:]) == 0 {
			return Batch{}, off, recEnd
		}
		return Batch{}, off, recCorrupt
	}
	if payloadLen > maxRecordBytes || payloadLen < 12 {
		return Batch{}, off, recCorrupt
	}
	if len(rest) < recHeaderSize+payloadLen {
		return Batch{}, off, recTorn
	}
	payload := rest[recHeaderSize : recHeaderSize+payloadLen]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
		return Batch{}, off, recCorrupt
	}
	b, ok := decodePayload(payload)
	if !ok {
		return Batch{}, off, recCorrupt
	}
	return b, off + recHeaderSize + payloadLen, recOK
}

// decodePayload decodes a record payload into a batch.
func decodePayload(p []byte) (Batch, bool) {
	if len(p) < 12 {
		return Batch{}, false
	}
	b := Batch{Seq: binary.LittleEndian.Uint64(p)}
	n := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	// Each row takes at least three 4-byte length prefixes, so a row count
	// the remaining payload cannot hold is rejected before it sizes an
	// allocation.
	if n > len(p)/12 {
		return Batch{}, false
	}
	if n == 0 {
		b.Note = string(p)
		return b, true
	}
	b.Rows = make([]model.Row, 0, n)
	for i := 0; i < n; i++ {
		var f [3]string
		for j := 0; j < 3; j++ {
			if len(p) < 4 {
				return Batch{}, false
			}
			l := int(binary.LittleEndian.Uint32(p))
			p = p[4:]
			if l < 0 || l > len(p) {
				return Batch{}, false
			}
			f[j] = string(p[:l])
			p = p[l:]
		}
		b.Rows = append(b.Rows, model.Row{Entity: f[0], Attribute: f[1], Source: f[2]})
	}
	if len(p) != 0 {
		return Batch{}, false
	}
	return b, true
}
