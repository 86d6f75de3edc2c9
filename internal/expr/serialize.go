package expr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"
)

// Binary serialisation of expressions. The format is a compact preorder
// encoding used by compiled-library export (paper §4.6 F10) and by the
// WIR/TWIR serialisers. It round-trips exactly, including big integers.

const (
	tagSymbol byte = iota + 1
	tagMachineInt
	tagBigInt
	tagReal
	tagRational
	tagComplex
	tagString
	tagNormal
)

// encBuf is a reusable encoding buffer. Encode and Hash build the whole
// encoding in one before handing it on, so neither allocates per call or per
// node; a buffer that grew past maxPooledEncoding is dropped, not pooled.
type encBuf struct{ b []byte }

const maxPooledEncoding = 1 << 16

var encPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 1024)} }}

func getEncBuf() *encBuf { return encPool.Get().(*encBuf) }

func (eb *encBuf) release() {
	if cap(eb.b) <= maxPooledEncoding {
		eb.b = eb.b[:0]
		encPool.Put(eb)
	}
}

// Encode writes a binary encoding of e to w, in one Write. The encoding is
// injective (it round-trips through Decode), so writing it to a hash keys e
// by content: the compile cache does.
func Encode(w io.Writer, e Expr) error {
	eb := getEncBuf()
	defer eb.release()
	var err error
	if eb.b, err = appendExpr(eb.b, e, false); err != nil {
		return err
	}
	_, err = w.Write(eb.b)
	return err
}

// appendExpr appends the encoding of e to dst. With sameQ set, values SameQ
// holds equal encode alike (the two real zeros), which is what Hash needs and
// a round trip must not have.
func appendExpr(dst []byte, e Expr, sameQ bool) ([]byte, error) {
	switch x := e.(type) {
	case *Symbol:
		dst = append(dst, tagSymbol)
		dst = appendString(dst, x.Name)
	case *Integer:
		if x.IsMachine() {
			dst = append(dst, tagMachineInt)
			dst = binary.AppendVarint(dst, x.Int64())
		} else {
			dst = append(dst, tagBigInt)
			dst = appendBigInt(dst, x.big)
		}
	case *Real:
		dst = append(dst, tagReal)
		dst = appendFloat(dst, x.V, sameQ)
	case *Rational:
		dst = append(dst, tagRational)
		dst = appendBigInt(dst, x.V.Num())
		dst = appendBigInt(dst, x.V.Denom())
	case *Complex:
		dst = append(dst, tagComplex)
		dst = appendFloat(dst, x.Re, sameQ)
		dst = appendFloat(dst, x.Im, sameQ)
	case *String:
		dst = append(dst, tagString)
		dst = appendString(dst, x.V)
	case *Normal:
		dst = append(dst, tagNormal)
		dst = binary.AppendUvarint(dst, uint64(len(x.args)))
		var err error
		if dst, err = appendExpr(dst, x.head, sameQ); err != nil {
			return dst, err
		}
		for _, a := range x.args {
			if dst, err = appendExpr(dst, a, sameQ); err != nil {
				return dst, err
			}
		}
	default:
		return dst, fmt.Errorf("expr: cannot encode %T", e)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, v float64, sameQ bool) []byte {
	if sameQ && v == 0 {
		v = 0 // -0. === 0.
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendBigInt appends the magnitude's length, its big-endian bytes and a
// sign byte, filling the bytes in place.
func appendBigInt(dst []byte, v *big.Int) []byte {
	n := (v.BitLen() + 7) / 8
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, make([]byte, n)...)
	v.FillBytes(dst[len(dst)-n:])
	sign := byte(0)
	if v.Sign() < 0 {
		sign = 1
	}
	return append(dst, sign)
}

// Decode reads one expression from r in the format written by Encode.
func Decode(r io.Reader) (Expr, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return decode(br)
}

func decode(r *bufio.Reader) (Expr, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagSymbol:
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		return Sym(name), nil
	case tagMachineInt:
		v, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		return FromInt64(v), nil
	case tagBigInt:
		v, err := readBigInt(r)
		if err != nil {
			return nil, err
		}
		return FromBig(v), nil
	case tagReal:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		return FromFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case tagRational:
		num, err := readBigInt(r)
		if err != nil {
			return nil, err
		}
		den, err := readBigInt(r)
		if err != nil {
			return nil, err
		}
		return Ratio(num, den), nil
	case tagComplex:
		var buf [16]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		return FromComplex(
			math.Float64frombits(binary.LittleEndian.Uint64(buf[:8])),
			math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))), nil
	case tagString:
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		return FromString(s), nil
	case tagNormal:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if n > 1<<24 {
			return nil, fmt.Errorf("expr: implausible arity %d", n)
		}
		head, err := decode(r)
		if err != nil {
			return nil, err
		}
		args := make([]Expr, n)
		for i := range args {
			if args[i], err = decode(r); err != nil {
				return nil, err
			}
		}
		return &Normal{head: head, args: args}, nil
	}
	return nil, fmt.Errorf("expr: bad tag %d", tag)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("expr: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readBigInt(r *bufio.Reader) (*big.Int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("expr: implausible bigint length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	v := new(big.Int).SetBytes(buf)
	sign, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if sign == 1 {
		v.Neg(v)
	}
	return v, nil
}
