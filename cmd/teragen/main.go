// Command teragen generates TeraGen-format input data: 100-byte records
// with a 10-byte key and a 90-byte value (the format the paper sorts,
// Section V-A). Output is raw records to a file or stdout; -text prints a
// human-readable preview instead; -disk writes the K-part on-disk layout
// (part-00000 ... part-000NN under -out, one file per worker) that the
// engines' -indir flag consumes for real out-of-core runs.
//
// Usage:
//
//	teragen -rows 1000000 -seed 42 -out input.dat
//	teragen -rows 5 -text
//	teragen -rows 10000000 -k 8 -disk -out /data/input
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
)

func main() {
	rows := flag.Int64("rows", 1000, "number of records to generate")
	seed := flag.Uint64("seed", 2017, "generator seed")
	skewed := flag.Bool("skewed", false, "use the skewed key distribution")
	out := flag.String("out", "", "output file (default stdout); with -disk, the output directory")
	text := flag.Bool("text", false, "print a human-readable preview instead of raw records")
	disk := flag.Bool("disk", false, "write K part files under -out (the engines' -indir layout)")
	k := flag.Int("k", 4, "number of part files in -disk mode")
	flag.Parse()

	var err error
	if *disk {
		err = runDisk(*rows, *seed, *skewed, *out, *k)
	} else {
		err = run(*rows, *seed, *skewed, *out, *text)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teragen:", err)
		os.Exit(1)
	}
}

func run(rows int64, seed uint64, skewed bool, out string, text bool) error {
	if rows < 0 {
		return fmt.Errorf("negative row count %d", rows)
	}
	gen := kv.NewGenerator(seed, dist(skewed))

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	defer bw.Flush()

	if text {
		var rec [kv.RecordSize]byte
		for i := int64(0); i < rows; i++ {
			gen.Record(rec[:], i)
			fmt.Fprintf(bw, "row %8d  key=%x  value=%s...\n", i, rec[:kv.KeySize], rec[kv.KeySize:][:24])
		}
		return nil
	}
	return writeRows(bw, gen, 0, rows)
}

// runDisk writes the K-part input layout: file i holds the rows of the
// File Placement split (kv.SplitRows), exactly what worker i of a K-node
// TeraSort stores, so an -indir run sorts the same data a generated run
// with the same seed and rows would.
func runDisk(rows int64, seed uint64, skewed bool, dir string, k int) error {
	if rows < 0 {
		return fmt.Errorf("negative row count %d", rows)
	}
	if k <= 0 {
		return fmt.Errorf("non-positive part count %d", k)
	}
	if dir == "" {
		return fmt.Errorf("-disk requires -out directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen := kv.NewGenerator(seed, dist(skewed))
	bounds := kv.SplitRows(rows, k)
	for i := 0; i < k; i++ {
		f, err := os.Create(extsort.PartFile(dir, i))
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		err = writeRows(bw, gen, bounds[i], bounds[i+1])
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeRows streams rows [first, last) to w in bounded blocks.
func writeRows(w io.Writer, gen *kv.Generator, first, last int64) error {
	const block = 1 << 14
	return gen.GenerateBlocks(first, last-first, block, func(r kv.Records) error {
		_, err := w.Write(r.Bytes())
		return err
	})
}

func dist(skewed bool) kv.Distribution {
	if skewed {
		return kv.DistSkewed
	}
	return kv.DistUniform
}
