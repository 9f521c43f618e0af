package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"odbgc/internal/simerr"
)

// On-disk constants. PageSize matches the paper's 8 KB partition pages.
const (
	PageSize    = 8192
	pageHdrLen  = 4 + 1 + 2 + 4 + 4 // crc, kind, count, next, used
	pagePayload = PageSize - pageHdrLen

	metaMagic = 0x4f44_4247 // "ODBG"
	// metaVersion is the image format checkpoints write: 4, data pages
	// chained in OID order and, when the image carries one, a chain of state
	// pages, under a meta page that carries the sum of both (foldPage) and
	// names the state chain's first page. Format 3 — the same without a state
	// chain — format 2 — format 3 without the sum — and format 1 — the same
	// data pages, found through a directory of (OID, page, slot) entries —
	// still open; nothing writes them.
	metaVersion = 4

	heapFile = "heap.db"
	walFile  = "wal.log"
)

// Page kinds.
const (
	kindMeta = iota + 1
	kindDir  // format 1 only
	kindData
	kindState // format 4
)

// WAL record types.
const (
	recAlloc = iota + 1
	recSet
	recRoot
	recReclaim
	recCommit
)

// walHdrLen prefixes every WAL record: u32 payload length, u32 CRC32-C of
// the payload.
const walHdrLen = 8

// castagnoli is the CRC32-C table, shared by pages and WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// le is the byte order of everything on disk.
var le = binary.LittleEndian

// pageHdr is the decoded header of a heap page.
type pageHdr struct {
	kind  uint8
	count uint16 // records (data) or entries (dir) on the page
	next  uint32 // next page of the same kind in the image, 0 = end
	used  uint32 // payload bytes in use
}

// sealPage writes hdr into the first bytes of page and stamps the CRC over
// everything after the CRC field. page must be PageSize long.
func sealPage(page []byte, hdr pageHdr) {
	page[4] = hdr.kind
	le.PutUint16(page[5:], hdr.count)
	le.PutUint32(page[7:], hdr.next)
	le.PutUint32(page[11:], hdr.used)
	le.PutUint32(page[0:], crc32.Checksum(page[4:], castagnoli))
}

// openPage verifies the CRC of a page and returns its header. A checksum
// mismatch is torn-write corruption.
func openPage(page []byte, pageNo uint32) (pageHdr, error) {
	var hdr pageHdr
	if len(page) != PageSize {
		return hdr, simerr.WrapTornWrite(fmt.Sprintf("page %d: %d bytes", pageNo, len(page)), nil)
	}
	if got, want := crc32.Checksum(page[4:], castagnoli), le.Uint32(page[0:]); got != want {
		return hdr, simerr.WrapTornWrite(fmt.Sprintf("page %d: crc %08x != %08x", pageNo, got, want), nil)
	}
	hdr.kind = page[4]
	hdr.count = le.Uint16(page[5:])
	hdr.next = le.Uint32(page[7:])
	hdr.used = le.Uint32(page[11:])
	if hdr.used > pagePayload {
		return hdr, simerr.WrapTornWrite(fmt.Sprintf("page %d: used %d exceeds payload", pageNo, hdr.used), nil)
	}
	return hdr, nil
}

// meta is the decoded root of a checkpoint: which pages hold the committed
// image, how far the WAL was absorbed, and the OID horizon.
type meta struct {
	format     uint32 // image format, as decoded; encodeMeta writes metaVersion
	generation uint64 // monotonically increasing; higher wins between the two slots
	seq        uint64 // last WAL batch sequence folded into this checkpoint
	nextOID    uint64
	pageCount  uint32 // heap.db size in pages at checkpoint time
	dirHead    uint32 // first page of the image's chain (format 1: of its directory), 0 = empty
	objects    uint64 // object count, for validation
	sum        uint64 // format 3 on: the image's data pages, then its state pages, folded by foldPage in chain order
	stateHead  uint32 // format 4: first page of the image's state chain, 0 = none
}

// encodeMeta writes m's meta page image over the first PageSize bytes of buf,
// whatever they held, and returns that page.
func encodeMeta(buf []byte, m meta) []byte {
	page := buf[:PageSize]
	clear(page)
	p := page[pageHdrLen:]
	le.PutUint32(p[0:], metaMagic)
	le.PutUint32(p[4:], metaVersion)
	le.PutUint64(p[8:], m.generation)
	le.PutUint64(p[16:], m.seq)
	le.PutUint64(p[24:], m.nextOID)
	le.PutUint32(p[32:], m.pageCount)
	le.PutUint32(p[36:], m.dirHead)
	le.PutUint64(p[40:], m.objects)
	le.PutUint64(p[48:], m.sum)
	le.PutUint32(p[56:], m.stateHead)
	sealPage(page, pageHdr{kind: kindMeta, used: 60})
	return page
}

// sumBasis starts an image sum; foldPage adds one sealed data page to it.
const sumBasis = 0xcbf2_9ce4_8422_2325

// foldPage adds a data page — its number and its CRC — to an image sum, FNV-1a
// over 64-bit words. A checkpoint's image pages and its meta reach the device
// under one flush, so a power cut can land the meta without some of them; a
// page that did not land still holds what it held before, whose CRC is not
// the one folded in. Each step is a bijection of the running sum, so two
// chains that differ in one page's number or CRC never sum alike.
func foldPage(sum uint64, no, crc uint32) uint64 {
	return (sum ^ (uint64(no)<<32 | uint64(crc))) * 0x100_0000_01b3
}

// errImageFormat is a checksummed meta page of a format this build does not
// read: not damage, but a newer writer's image.
var errImageFormat = errors.New("disk: image format not supported")

// decodeMeta validates and decodes one meta slot. The error distinguishes
// "never written" (all zero ⇒ nil meta, nil error) from "damaged", and both
// from errImageFormat.
func decodeMeta(page []byte, pageNo uint32) (*meta, error) {
	allZero := true
	for _, b := range page {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return nil, nil
	}
	hdr, err := openPage(page, pageNo)
	if err != nil {
		return nil, err
	}
	if hdr.kind != kindMeta {
		return nil, simerr.WrapTornWrite(fmt.Sprintf("page %d: kind %d is not meta", pageNo, hdr.kind), nil)
	}
	p := page[pageHdrLen:]
	if le.Uint32(p[0:]) != metaMagic {
		return nil, simerr.WrapTornWrite(fmt.Sprintf("page %d: bad magic", pageNo), nil)
	}
	v := le.Uint32(p[4:])
	if v < 1 || v > metaVersion {
		return nil, fmt.Errorf("%w: meta page %d names format %d, this build reads 1 to %d", errImageFormat, pageNo, v, metaVersion)
	}
	m := &meta{
		format:     v,
		generation: le.Uint64(p[8:]),
		seq:        le.Uint64(p[16:]),
		nextOID:    le.Uint64(p[24:]),
		pageCount:  le.Uint32(p[32:]),
		dirHead:    le.Uint32(p[36:]),
		objects:    le.Uint64(p[40:]),
	}
	if v >= 3 {
		m.sum = le.Uint64(p[48:])
	}
	if v >= 4 {
		m.stateHead = le.Uint32(p[56:])
	}
	return m, nil
}

// dirEntryLen is the wire size of one format-1 directory entry: oid u64, page
// u32, slot u16.
const dirEntryLen = 8 + 4 + 2

// objRecHdrLen is the fixed part of one object record on a data page: oid u64,
// class u8, flags u8, size u32, nslots u32. The slots follow, u64 each.
const objRecHdrLen = 8 + 1 + 1 + 4 + 4

// The flag bits of an object record. Only an image with a state chain sets
// flagDead: the oracle's verdict is the simulator's state, not the database's.
const (
	flagRoot = 1 << iota
	flagDead
)

// objRecLen returns the wire size of one object record on a data page.
func objRecLen(nslots int) int { return objRecHdrLen + 8*nslots }
