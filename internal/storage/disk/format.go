package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"odbgc/internal/simerr"
)

// On-disk constants. PageSize matches the paper's 8 KB partition pages.
const (
	PageSize    = 8192
	pageHdrLen  = 4 + 1 + 2 + 4 + 4 // crc, kind, count, next, used
	pagePayload = PageSize - pageHdrLen

	metaMagic   = 0x4f44_4247 // "ODBG"
	metaVersion = 1

	heapFile = "heap.db"
	walFile  = "wal.log"
)

// Page kinds.
const (
	kindMeta = iota + 1
	kindDir
	kindData
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
	next  uint32 // next page in the chain, 0 = end
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
	generation uint64 // monotonically increasing; higher wins between the two slots
	seq        uint64 // last WAL batch sequence folded into this checkpoint
	nextOID    uint64
	pageCount  uint32 // heap.db size in pages at checkpoint time
	dirHead    uint32 // first directory page, 0 = empty database
	objects    uint64 // object count, for validation
}

// encodeMeta builds a meta page image.
func encodeMeta(m meta) []byte {
	page := make([]byte, PageSize)
	p := page[pageHdrLen:]
	le.PutUint32(p[0:], metaMagic)
	le.PutUint32(p[4:], metaVersion)
	le.PutUint64(p[8:], m.generation)
	le.PutUint64(p[16:], m.seq)
	le.PutUint64(p[24:], m.nextOID)
	le.PutUint32(p[32:], m.pageCount)
	le.PutUint32(p[36:], m.dirHead)
	le.PutUint64(p[40:], m.objects)
	sealPage(page, pageHdr{kind: kindMeta, used: 48})
	return page
}

// decodeMeta validates and decodes one meta slot. The error distinguishes
// "never written" (all zero ⇒ nil meta, nil error) from "damaged".
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
	if v := le.Uint32(p[4:]); v != metaVersion {
		return nil, fmt.Errorf("disk: meta page %d: version %d not supported", pageNo, v)
	}
	return &meta{
		generation: le.Uint64(p[8:]),
		seq:        le.Uint64(p[16:]),
		nextOID:    le.Uint64(p[24:]),
		pageCount:  le.Uint32(p[32:]),
		dirHead:    le.Uint32(p[36:]),
		objects:    le.Uint64(p[40:]),
	}, nil
}

// dirEntryLen is the wire size of one directory entry: oid u64, page u32,
// slot u16. dirPerPage of them fill a directory page.
const (
	dirEntryLen = 8 + 4 + 2
	dirPerPage  = pagePayload / dirEntryLen
)

// objRecHdrLen is the fixed part of one object record on a data page: oid u64,
// class u8, root u8, size u32, nslots u32. The slots follow, u64 each.
const objRecHdrLen = 8 + 1 + 1 + 4 + 4

// objRecLen returns the wire size of one object record on a data page.
func objRecLen(nslots int) int { return objRecHdrLen + 8*nslots }
