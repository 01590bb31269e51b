package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// SchemaVersion names the state schema carried by a snapshot. It must be
// bumped whenever any serialized state struct changes shape, so stale
// snapshots are rejected instead of silently misread (sweep job hashes
// fold it in too, so cached rows miss after a bump).
const SchemaVersion = "flov-snap-v2"

// magic identifies a FLOV snapshot container.
const magic = "FLOVSNAP"

// formatVersion is the container layout version (header + CRC-trailered
// named sections), independent of the state schema inside.
const formatVersion uint32 = 1

// ErrCorrupt marks integrity failures: truncation, bad magic, CRC
// mismatches. Use errors.Is to test for it.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrSchema marks version mismatches: the file is intact but written by
// an incompatible schema or container format.
var ErrSchema = errors.New("snapshot: incompatible version")

// section is one named, CRC-trailered payload.
type section struct {
	name    string
	payload []byte
}

// writeContainer writes the header and all sections to w.
//
// Layout: "FLOVSNAP" | u32le format | uvarint schema-len | schema |
// repeated { uvarint name-len | name | uvarint payload-len | payload |
// u32le CRC32(payload) } until EOF.
func writeContainer(w io.Writer, sections []section) error {
	var hdr []byte
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, formatVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(SchemaVersion)))
	hdr = append(hdr, SchemaVersion...)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	for _, s := range sections {
		var rec []byte
		rec = binary.AppendUvarint(rec, uint64(len(s.name)))
		rec = append(rec, s.name...)
		rec = binary.AppendUvarint(rec, uint64(len(s.payload)))
		rec = append(rec, s.payload...)
		rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(s.payload))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("snapshot: writing section %q: %w", s.name, err)
		}
	}
	return nil
}

// readContainer reads and verifies the whole container from r. Every
// section's CRC is checked before any payload is decoded, so a
// truncated or bit-flipped file is always rejected with a diagnostic
// and never partially applied.
func readContainer(r io.Reader) (map[string][]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading container: %w", err)
	}
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("%w: file too short (%d bytes) to hold a snapshot header", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (not a FLOV snapshot)", ErrCorrupt, string(data[:len(magic)]))
	}
	d := &decoder{data: data, pos: len(magic)}
	verBytes, err := d.take(4)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if ver := binary.LittleEndian.Uint32(verBytes); ver != formatVersion {
		return nil, fmt.Errorf("%w: container format %d, this build reads format %d", ErrSchema, ver, formatVersion)
	}
	schema, err := readString(d)
	if err != nil {
		return nil, fmt.Errorf("%w: reading schema: %v", ErrCorrupt, err)
	}
	if schema != SchemaVersion {
		return nil, fmt.Errorf("%w: snapshot schema %q, this build reads %q", ErrSchema, schema, SchemaVersion)
	}
	sections := make(map[string][]byte)
	for d.remaining() > 0 {
		name, err := readString(d)
		if err != nil {
			return nil, fmt.Errorf("%w: reading section name: %v", ErrCorrupt, err)
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: section %q length: %v", ErrCorrupt, name, err)
		}
		payload, err := d.take(int(plen))
		if err != nil {
			return nil, fmt.Errorf("%w: section %q truncated: %v", ErrCorrupt, name, err)
		}
		crcBytes, err := d.take(4)
		if err != nil {
			return nil, fmt.Errorf("%w: section %q missing CRC trailer: %v", ErrCorrupt, name, err)
		}
		want := binary.LittleEndian.Uint32(crcBytes)
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("%w: section %q CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, name, want, got)
		}
		if _, dup := sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		sections[name] = payload
	}
	return sections, nil
}

func readString(d *decoder) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
