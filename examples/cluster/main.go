// Cluster: run the lattice distributed across TCP executors — the
// Spark-cluster analogue. The example opens the cluster backend with three
// executors started inside this process on loopback (in production each
// would be cmd/sbgt-exec on its own node, listed in Backend.Addrs) and
// runs Bayesian updates whose posterior lives sharded across them: same
// wire protocol, sharding and merge order as a real deployment.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log/slog"
	"os"
	"time"

	sbgt "repro"
	"repro/internal/obs"
)

const executors = 3

func main() {
	logg := obs.NewLogger(os.Stderr, slog.LevelInfo, "example-cluster")
	fatal := func(err error) {
		logg.Error(err.Error())
		os.Exit(1)
	}
	// The driver shards a 16-subject lattice (65,536 states) across the
	// three executors — each owns a shard of the 2^N posterior and serves
	// kernel RPCs — and builds the prior remotely. Closing the model stops
	// the executors it started.
	risks := sbgt.UniformRisks(16, 0.06)
	assay := sbgt.BinaryTest(0.95, 0.99)
	eng := sbgt.NewEngine(0)
	defer eng.Close()
	model, err := eng.OpenBackend(sbgt.Backend{
		Kind:           sbgt.BackendCluster,
		LocalExecutors: executors,
		DialTimeout:    3 * time.Second,
	}, risks, assay)
	if err != nil {
		fatal(err)
	}
	defer model.Close()
	fmt.Printf("lattice of %d subjects sharded over %d executors\n", model.N(), executors)

	// Drive a few pooled observations through the distributed posterior.
	steps := []struct {
		pool sbgt.SubjectSet
		y    sbgt.Outcome
	}{
		{sbgt.Subjects(0, 1, 2, 3, 4, 5, 6, 7), sbgt.Negative},
		{sbgt.Subjects(8, 9, 10, 11), sbgt.Positive},
		{sbgt.Subjects(8, 9), sbgt.Negative},
		{sbgt.Subjects(10), sbgt.Positive},
	}
	for _, st := range steps {
		if err := model.Update(st.pool, st.y); err != nil {
			fatal(err)
		}
		ent, err := model.Entropy()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  observed %v on %v -> posterior entropy %.3f bits\n", st.y, st.pool, ent)
	}

	marg, err := model.Marginals()
	if err != nil {
		fatal(err)
	}
	fmt.Println("posterior infection probabilities:")
	for i, g := range marg {
		bar := ""
		for b := 0.0; b < g; b += 0.05 {
			bar += "#"
		}
		fmt.Printf("  subject %2d: %6.4f %s\n", i, g, bar)
	}
	fmt.Println("subject 10 should stand out; 0-7 and 8-9 should be near zero.")
}
