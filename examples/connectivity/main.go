// Connectivity: the paper's Figure 8 question — do the policies keep their
// accuracy as the database's object connectivity changes? This example
// sweeps NumConnPerAtomic over {3, 6, 9}, runs SAIO and SAGA at a few
// requested levels, and tabulates requested vs achieved.
package main

import (
	"fmt"
	"log"

	"odbgc"
)

func main() {
	fmt.Println("connectivity sensitivity (requested vs achieved)")
	fmt.Println()
	fmt.Printf("%-5s %-22s %-11s %-10s %s\n", "conn", "policy", "requested", "achieved", "collections")

	for _, conn := range []int{3, 6, 9} {
		tr, err := odbgc.GenerateOO7Trace(odbgc.OO7Options{Connectivity: conn, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}

		for _, frac := range []float64{0.10, 0.25} {
			policy, err := odbgc.NewSAIO(odbgc.SAIOConfig{Frac: frac})
			if err != nil {
				log.Fatal(err)
			}
			res, err := odbgc.Simulate(tr, policy, odbgc.SimOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-5d %-22s %9.0f%% %9.2f%% %8d\n",
				conn, "SAIO", frac*100, res.GCIOFrac*100, len(res.Collections))
		}

		for _, frac := range []float64{0.05, 0.15} {
			for _, estName := range []string{"oracle", "fgs-hb"} {
				est, err := odbgc.NewEstimator(estName, 0.8)
				if err != nil {
					log.Fatal(err)
				}
				policy, err := odbgc.NewSAGA(odbgc.SAGAConfig{Frac: frac}, est)
				if err != nil {
					log.Fatal(err)
				}
				res, err := odbgc.Simulate(tr, policy, odbgc.SimOptions{})
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-5d %-22s %9.0f%% %9.2f%% %8d\n",
					conn, "SAGA/"+estName, frac*100, res.GarbageFrac*100, len(res.Collections))
			}
		}
		fmt.Println()
	}
	fmt.Println("paper shape: accuracy holds across connectivities (Figure 8)")
}
