package main

import (
	"crypto/sha256"
	"syscall"
	"time"
)

// The yardstick is a fixed piece of work — SHA-256 over 60 × 32 KiB, then
// 300 000 random increments in a 16 MiB table — run after every
// timed op. The host this benchmark runs on is a
// shared VM whose speed drifts by ±15 % over minutes, for identical work
// and in CPU time as much as in wall time; one 20-second run sits inside
// one regime, so no amount of sampling inside the run averages it out. The
// yardstick does: it slows down with the op, and every duration a pass
// reports is scaled by yardstickRefS ÷ (the pass's median reading). Over
// eight same-seed runs raw op medians ranged 30–36 %, scaled ones 6 %.
//
// A reported second is therefore a second on a host where the yardstick
// takes yardstickRefS; bench.yardstick_ms gives the host's actual reading,
// and raw = reported × yardstick_ms ÷ (1000 × yardstickRefS). It uses
// nothing from the repository, so no change under test can move it.
type yardstick struct {
	buf   [32 << 10]byte
	table []byte // off the Go heap: 16 MiB of live heap would halve the ops' GC rate
	sink  uint32
}

// yardstickRefS is the yardstick's reading at the reference box's usual
// speed. It is a unit, not a tunable: changing it rescales every timing.
const yardstickRefS = 0.007

func newYardstick() (*yardstick, error) {
	table, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	y := &yardstick{table: table}
	for i := range table {
		table[i] = byte(i) // fault every page in before the first reading
	}
	return y, nil
}

// run does the fixed work once and returns how long it took.
func (y *yardstick) run() float64 {
	t0 := time.Now()
	var sum [32]byte
	for i := 0; i < 60; i++ {
		y.buf[0] = byte(i)
		sum = sha256.Sum256(y.buf[:])
	}
	x := uint32(sum[0])
	for i := 0; i < 300000; i++ {
		x = x*1664525 + 1013904223
		y.table[int(x>>8)%len(y.table)]++
	}
	y.sink = x
	return time.Since(t0).Seconds()
}

// atRef scales a duration measured while the yardstick read yardS to the
// reference speed.
func atRef(seconds, yardS float64) float64 { return seconds * yardstickRefS / yardS }
