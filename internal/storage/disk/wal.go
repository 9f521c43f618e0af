package disk

import (
	"fmt"
	"hash/crc32"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// walOp is one logical mutation, the unit both of staging (Log* calls
// append walOps) and of replay (recovery decodes records back into walOps
// and folds them through the same replay as a commit on a store no heap
// runs on).
type walOp struct {
	kind   uint8
	oid    objstore.OID
	class  objstore.Class
	size   int
	nslots int
	slot   int
	dst    objstore.OID
	on     bool
	oids   []objstore.OID // reclaim victims; aliases the staging buffer
}

// appendRecord encodes one WAL record (length, CRC32-C, payload) onto buf.
// The payload is encoded first into the space after the header, then the
// header is stamped — one pass, no temporaries.
func appendRecord(buf []byte, op walOp, seq uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	switch op.kind {
	case recAlloc:
		buf = append(buf, recAlloc)
		buf = le.AppendUint64(buf, uint64(op.oid))
		buf = append(buf, byte(op.class))
		buf = le.AppendUint32(buf, uint32(op.size))
		buf = le.AppendUint32(buf, uint32(op.nslots))
	case recSet:
		buf = append(buf, recSet)
		buf = le.AppendUint64(buf, uint64(op.oid))
		buf = le.AppendUint32(buf, uint32(op.slot))
		buf = le.AppendUint64(buf, uint64(op.dst))
	case recRoot:
		on := byte(0)
		if op.on {
			on = 1
		}
		buf = append(buf, recRoot, on)
		buf = le.AppendUint64(buf, uint64(op.oid))
	case recReclaim:
		buf = append(buf, recReclaim)
		buf = le.AppendUint32(buf, uint32(len(op.oids)))
		for _, oid := range op.oids {
			buf = le.AppendUint64(buf, uint64(oid))
		}
	case recCommit:
		buf = append(buf, recCommit)
		buf = le.AppendUint64(buf, seq)
	}
	payload := buf[start+walHdrLen:]
	le.PutUint32(buf[start:], uint32(len(payload)))
	le.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeRecord decodes one record payload. The reclaim OID slice is freshly
// allocated — decode runs only during recovery.
func decodeRecord(p []byte) (walOp, uint64, error) {
	var op walOp
	if len(p) < 1 {
		return op, 0, fmt.Errorf("empty record")
	}
	op.kind = p[0]
	body := p[1:]
	need := func(n int) error {
		if len(body) != n {
			return fmt.Errorf("record type %d: %d payload bytes, want %d", op.kind, len(body), n)
		}
		return nil
	}
	switch op.kind {
	case recAlloc:
		if err := need(8 + 1 + 4 + 4); err != nil {
			return op, 0, err
		}
		op.oid = objstore.OID(le.Uint64(body))
		op.class = objstore.Class(body[8])
		op.size = int(le.Uint32(body[9:]))
		op.nslots = int(le.Uint32(body[13:]))
	case recSet:
		if err := need(8 + 4 + 8); err != nil {
			return op, 0, err
		}
		op.oid = objstore.OID(le.Uint64(body))
		op.slot = int(le.Uint32(body[8:]))
		op.dst = objstore.OID(le.Uint64(body[12:]))
	case recRoot:
		if err := need(1 + 8); err != nil {
			return op, 0, err
		}
		op.on = body[0] != 0
		op.oid = objstore.OID(le.Uint64(body[1:]))
	case recReclaim:
		if len(body) < 4 {
			return op, 0, fmt.Errorf("reclaim record: %d payload bytes", len(body))
		}
		n := int(le.Uint32(body))
		if err := need(4 + 8*n); err != nil {
			return op, 0, err
		}
		op.oids = make([]objstore.OID, n)
		for i := range op.oids {
			op.oids[i] = objstore.OID(le.Uint64(body[4+8*i:]))
		}
	case recCommit:
		if err := need(8); err != nil {
			return op, 0, err
		}
		return op, le.Uint64(body), nil
	default:
		return op, 0, fmt.Errorf("unknown record type %d", op.kind)
	}
	return op, 0, nil
}

// walScan is the result of scanning a WAL image during recovery.
type walScan struct {
	tail    int64 // offset just past the last intact commit record
	batches int   // batches applied (seq beyond the checkpoint)
	records int   // records inside applied batches
	lastSeq uint64
	torn    bool  // the image ended in a damaged or incomplete record
	tornAt  int64 // offset of the damaged record
	tornErr error // classification of the damage (simerr.ErrTornWrite)
}

// scanWAL replays a WAL image into the committed state in objs. Batches whose
// sequence is at or below ckptSeq were absorbed by the checkpoint and are
// skipped; later batches must arrive in exact sequence order. The scan
// stops at the first damaged record: by write-ahead discipline everything
// after a tear was never acknowledged, so the tail is discarded rather than
// searched for stray intact records.
func scanWAL(data []byte, ckptSeq uint64, objs *objstore.Store) (walScan, error) {
	res := walScan{lastSeq: ckptSeq}
	var batch []walOp
	off := 0
	tear := func(at int, err error) {
		res.torn = true
		res.tornAt = int64(at)
		res.tornErr = simerr.WrapTornWrite(fmt.Sprintf("wal offset %d", at), err)
	}
	for off < len(data) {
		if len(data)-off < walHdrLen {
			tear(off, fmt.Errorf("truncated header: %d bytes", len(data)-off))
			break
		}
		length := int(le.Uint32(data[off:]))
		sum := le.Uint32(data[off+4:])
		if length <= 0 || length > len(data)-off-walHdrLen {
			tear(off, fmt.Errorf("record length %d exceeds image", length))
			break
		}
		payload := data[off+walHdrLen : off+walHdrLen+length]
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			tear(off, fmt.Errorf("crc %08x != %08x", got, sum))
			break
		}
		op, seq, err := decodeRecord(payload)
		if err != nil {
			tear(off, err)
			break
		}
		off += walHdrLen + length
		if op.kind != recCommit {
			batch = append(batch, op)
			continue
		}
		switch {
		case seq <= ckptSeq:
			// Absorbed by the checkpoint before the crash; the records are
			// a stale prefix left by an untruncated WAL.
			batch = batch[:0]
		case seq != res.lastSeq+1:
			return res, simerr.WrapRecoveryFailed(
				fmt.Sprintf("wal batch sequence %d after %d", seq, res.lastSeq), nil)
		default:
			for _, bop := range batch {
				if err := replay(objs, bop); err != nil {
					return res, simerr.WrapRecoveryFailed(
						fmt.Sprintf("replay batch %d", seq), err)
				}
			}
			res.records += len(batch)
			res.batches++
			res.lastSeq = seq
			batch = batch[:0]
		}
		res.tail = int64(off)
	}
	return res, nil
}
