// Command gpslab regenerates every table and figure of the paper and runs
// the validation experiments:
//
//	gpslab table1              print Table 1 (source parameters)
//	gpslab table2              regenerate Table 2 (E.B.B. characterizations)
//	gpslab fig3 -set 1|2       Figure 3(a)/(b): end-to-end delay bounds
//	gpslab fig4                Figure 4: improved direct bounds
//	gpslab validate            bound vs. simulated delay tails (EXT-SIM)
//	gpslab detvstat            deterministic vs statistical bounds (EXT-DET)
//	gpslab single              single-node analysis of the Set-1 sessions
//	gpslab scale               sharded many-slot simulation with streaming tails
//
// Figures render as ASCII log-scale plots; -csv FILE additionally writes
// the series as CSV. Global -cpuprofile/-memprofile flags (before the
// command) profile any subcommand.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/gps"
	"repro/internal/admission"
	"repro/internal/classgps"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/lbap"
	"repro/internal/network"
	"repro/internal/paper"
	"repro/internal/plot"
	"repro/internal/source"
	"repro/internal/stats"
)

func main() {
	globals := flag.NewFlagSet("gpslab", flag.ExitOnError)
	globals.Usage = usage
	prof := &profileFlags{}
	globals.StringVar(&prof.cpu, "cpuprofile", "", "write a CPU profile of the command to `file`")
	globals.StringVar(&prof.mem, "memprofile", "", "write a heap profile after the command to `file`")
	if err := globals.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if globals.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := globals.Arg(0), globals.Args()[1:]
	if err := prof.start(); err != nil {
		fmt.Fprintf(os.Stderr, "gpslab: %v\n", err)
		os.Exit(1)
	}
	var err error
	switch cmd {
	case "table1":
		err = table1()
	case "table2":
		err = table2()
	case "fig3":
		err = fig3(args)
	case "fig4":
		err = fig4(args)
	case "validate":
		err = validate(args)
	case "detvstat":
		err = detvstat()
	case "single":
		err = single()
	case "crst":
		err = crst()
	case "admit":
		err = admit(args)
	case "classes":
		err = classes()
	case "ring":
		err = ring()
	case "ys":
		err = ys()
	case "export":
		err = export(args)
	case "sweep":
		err = sweep(args)
	case "faults":
		err = faultsCmd(args)
	case "scale":
		err = scale(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gpslab: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpslab %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gpslab [-cpuprofile FILE] [-memprofile FILE] <command> [flags]

global flags (before the command):
  -cpuprofile FILE   write a CPU profile of the command
  -memprofile FILE   write a heap profile after the command

commands:
  table1     print the paper's Table 1 (on-off source parameters)
  table2     regenerate Table 2 (E.B.B. characterizations, both sets)
  fig3       Figure 3 delay-bound curves (-set 1|2, -dmax, -csv FILE)
  fig4       Figure 4 improved bounds (-dmax, -csv FILE)
  validate   simulate the tree network and compare tails to the bounds
  detvstat   deterministic (Parekh-Gallager) vs statistical bounds
  single     per-session single-node bounds for the Set-1 sessions
  crst       recursive CRST bounds vs the RPPS closed form on the tree
  admit      admission-control packing demo (-delay, -eps)
  classes    class-based GPS (paper §7) bounds for a voice/video/data mix
  ring       cyclic-topology (ring) CRST stability experiment
  ys         decomposition vs Yaron-Sidi recursion ablation
  export     write every figure as CSV (-dir, -slots, -seed)
  sweep      envelope-rate sensitivity sweep (-min, -max, -points)
  faults     rerun the Fig. 2 tree under injected faults (-class, -seed, -slots)
  scale      sharded tree simulation with streaming tails (-slots, -blockslots, -workers)`)
}

func table1() error {
	rows := make([][]string, len(paper.Table1))
	for i, p := range paper.Table1 {
		rows[i] = []string{
			fmt.Sprint(i + 1),
			fmt.Sprintf("%.2f", p.P),
			fmt.Sprintf("%.2f", p.Q),
			fmt.Sprintf("%.2f", p.Lambda),
			fmt.Sprintf("%.2f", p.Mean()),
		}
	}
	fmt.Println("Table 1: Parameters for the Arrival Processes")
	fmt.Print(plot.Table([]string{"session", "p", "q", "lambda", "mean"}, rows))
	return nil
}

func table2() error {
	fmt.Println("Table 2: E.B.B. Characterizations (computed vs paper)")
	sets := []struct {
		name       string
		rhos       []float64
		refA, refL []float64
	}{
		{"Set 1", paper.Set1Rho, paper.PaperSet1Alpha, paper.PaperSet1Lambda},
		{"Set 2", paper.Set2Rho, paper.PaperSet2Alpha, paper.PaperSet2Lambda},
	}
	for _, set := range sets {
		chars, err := paper.Table2(set.rhos)
		if err != nil {
			return err
		}
		rows := make([][]string, len(chars))
		for i, c := range chars {
			rows[i] = []string{
				fmt.Sprint(i + 1),
				fmt.Sprintf("%.2f", c.Rho),
				fmt.Sprintf("%.3f", c.Lambda),
				fmt.Sprintf("%.3f", set.refL[i]),
				fmt.Sprintf("%.3f", c.Alpha),
				fmt.Sprintf("%.3f", set.refA[i]),
			}
		}
		fmt.Printf("\n%s\n", set.name)
		fmt.Print(plot.Table(
			[]string{"session", "rho", "lambda", "lambda(paper)", "alpha", "alpha(paper)"}, rows))
	}
	return nil
}

func renderSeries(title string, series []plot.Series, csvPath string) error {
	fmt.Println(title)
	out, err := plot.RenderLog(series, 72, 20, 1e-12)
	if err != nil {
		return err
	}
	fmt.Print(out)
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := plot.WriteCSV(f, series); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	return nil
}

func fig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	set := fs.Int("set", 1, "E.B.B. parameter set (1 or 2)")
	dmax := fs.Float64("dmax", 60, "largest delay on the x axis")
	csvPath := fs.String("csv", "", "also write the series as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rhos := paper.Set1Rho
	label := "Figure 3(a): End-to-End Delay Bounds, Set 1 (log scale)"
	if *set == 2 {
		rhos = paper.Set2Rho
		label = "Figure 3(b): End-to-End Delay Bounds, Set 2 (log scale)"
	} else if *set != 1 {
		return fmt.Errorf("set = %d, want 1 or 2", *set)
	}
	chars, err := paper.Table2(rhos)
	if err != nil {
		return err
	}
	series, err := paper.Figure3(chars, *dmax, 60)
	if err != nil {
		return err
	}
	return renderSeries(label, series, *csvPath)
}

func fig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	dmax := fs.Float64("dmax", 60, "largest delay on the x axis")
	csvPath := fs.String("csv", "", "also write the series as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, err := paper.Figure4(*dmax, 60)
	if err != nil {
		return err
	}
	return renderSeries("Figure 4: Improved End-to-End Delay Bounds, Set 2 (log scale)", series, *csvPath)
}

func validate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	slots := fs.Int("slots", 300000, "simulation length in slots")
	seed := fs.Uint64("seed", 42, "simulation seed")
	dmax := fs.Float64("dmax", 30, "largest delay on the x axis")
	csvPath := fs.String("csv", "", "also write the series as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bound, sim, err := paper.BoundVsSim(paper.Set1Rho, *slots, *seed, *dmax, 30)
	if err != nil {
		return err
	}
	series := append(append([]plot.Series(nil), bound...), sim...)
	if err := renderSeries(
		fmt.Sprintf("Bound vs simulation (Set 1, %d slots): simulated tails must sit below the bounds", *slots),
		series, *csvPath); err != nil {
		return err
	}
	fmt.Println("\nnote: simulated end-to-end delays include <=1 slot of measurement rounding")
	fmt.Println("per hop plus 1 slot of store-and-forward pipeline (documented in DESIGN.md).")
	return nil
}

func detvstat() error {
	// Shape the Set-1 sources through leaky buckets sized from long
	// traces, then compare Parekh-Gallager hard delay bounds with the
	// statistical bounds at violation levels 1e-3 ... 1e-9.
	chars, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		return err
	}
	net := paper.Tree(chars)
	srcs, err := paper.Sources(7)
	if err != nil {
		return err
	}
	fmt.Println("EXT-DET: deterministic (hard) vs statistical (soft) end-to-end delay bounds")
	fmt.Println("Leaky-bucket sigma measured from 10^6-slot traces at rho of Set 1.")
	header := []string{"session", "g_net", "sigma", "D_det", "D_stat(1e-3)", "D_stat(1e-6)", "D_stat(1e-9)"}
	var rows [][]string
	for i := range srcs {
		trace := make([]float64, 1000000)
		for k := range trace {
			trace[k] = srcs[i].Next()
		}
		sigma := lbap.MinSigma(trace, paper.Set1Rho[i])
		g := net.GNet(i)
		det, err := lbap.RPPSNetworkBound(lbap.Envelope{Sigma: sigma, Rho: paper.Set1Rho[i]}, g)
		if err != nil {
			return err
		}
		nb, err := net.RPPSBound(i, network.VariantDiscrete)
		if err != nil {
			return err
		}
		row := []string{
			fmt.Sprint(i + 1),
			fmt.Sprintf("%.3f", g),
			fmt.Sprintf("%.2f", sigma),
			fmt.Sprintf("%.1f", det.Delay),
		}
		for _, eps := range []float64{1e-3, 1e-6, 1e-9} {
			row = append(row, fmt.Sprintf("%.1f", nb.Delay.Invert(eps)))
		}
		rows = append(rows, row)
	}
	fmt.Print(plot.Table(header, rows))
	fmt.Println("\nnote: the deterministic bound reflects the worst burst seen in the trace;")
	fmt.Println("soft bounds admit far smaller delay budgets at practical violation levels.")
	return nil
}

func single() error {
	chars, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		return err
	}
	srv := gps.NewRPPSServer(1, chars, paper.SessionNames)
	a, err := gps.Analyze(srv, gps.Options{Independent: true, Xi: gps.XiOptimal})
	if err != nil {
		return err
	}
	fmt.Println("Single GPS node, Set-1 sessions, RPPS assignment")
	header := []string{"session", "rho", "g", "class", "Q(1e-6)", "D(1e-6)", "Pr{D>=20}"}
	var rows [][]string
	for i := range srv.Sessions {
		sb := a.PartitionBound(i)
		rows = append(rows, []string{
			srv.Sessions[i].Name,
			fmt.Sprintf("%.2f", srv.Sessions[i].Arrival.Rho),
			fmt.Sprintf("%.3f", sb.G),
			fmt.Sprintf("H%d", a.Partition.ClassOf[i]+1),
			fmt.Sprintf("%.2f", sb.BacklogQuantile(1e-6)),
			fmt.Sprintf("%.2f", sb.DelayQuantile(1e-6)),
			fmt.Sprintf("%.2e", sb.DelayTail(20)),
		})
	}
	fmt.Print(plot.Table(header, rows))

	// Also show the bound curve for session 1 as a quick visual.
	grid := stats.Levels(0, 40, 40)
	ys := make([]float64, len(grid))
	sb := a.PartitionBound(0)
	for k, d := range grid {
		ys[k] = sb.DelayTail(d)
	}
	out, err := plot.RenderLog([]plot.Series{{Name: "session 1 delay bound", X: grid, Y: ys}}, 72, 14, 1e-12)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(out)
	return nil
}

func crst() error {
	chars, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		return err
	}
	net := paper.Tree(chars)
	a, err := net.AnalyzeCRST(network.CRSTOptions{Independent: true, ThetaFraction: 0.6})
	if err != nil {
		return err
	}
	fmt.Println("CRST recursive analysis of the Figure 2 tree (Set 1)")
	fmt.Printf("global classes: %d\n\n", len(a.Classes))
	header := []string{"session", "hop", "node", "g", "theta", "Pr{D_hop>=30}", "output alpha"}
	var rows [][]string
	for i := range net.Sessions {
		for k, hb := range a.Hops[i] {
			rows = append(rows, []string{
				paper.SessionNames[i],
				fmt.Sprint(k),
				net.Nodes[hb.Node].Name,
				fmt.Sprintf("%.3f", hb.G),
				fmt.Sprintf("%.3f", hb.Theta),
				fmt.Sprintf("%.2e", hb.Delay.Eval(30)),
				fmt.Sprintf("%.3f", hb.Output.Alpha),
			})
		}
	}
	fmt.Print(plot.Table(header, rows))
	fmt.Println("\nend-to-end comparison at 1e-6:")
	for i := range net.Sessions {
		rec := a.EndToEndDelayExpTail(i)
		rpps, err := net.RPPSBound(i, network.VariantDiscrete)
		if err != nil {
			return err
		}
		fmt.Printf("  %s: recursive D(1e-6) <= %.1f, RPPS closed form <= %.1f\n",
			paper.SessionNames[i], rec.Invert(1e-6), rpps.Delay.Invert(1e-6))
	}
	return nil
}

func admit(args []string) error {
	fs := flag.NewFlagSet("admit", flag.ExitOnError)
	delay := fs.Float64("delay", 25, "delay target in slots")
	eps := fs.Float64("eps", 1e-4, "violation probability target")
	rate := fs.Float64("rate", 1, "link rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := source.NewOnOff(0.4, 0.4, 0.4, 1)
	if err != nil {
		return err
	}
	char, err := src.EBBPaper(0.25)
	if err != nil {
		return err
	}
	tgt := admission.Target{Delay: *delay, Eps: *eps}
	g, err := admission.RequiredRate(char, tgt)
	if err != nil {
		return err
	}
	c, err := admission.NewController(*rate)
	if err != nil {
		return err
	}
	n := 0
	for {
		if _, err := c.Admit(admission.Request{Name: fmt.Sprint(n), Arrival: char, Target: tgt}); err != nil {
			break
		}
		n++
	}
	fmt.Printf("admission control on a rate-%.3g link, target Pr{D>=%g} <= %g\n", *rate, *delay, *eps)
	fmt.Printf("  per-session characterization: %v (mean %.2f, peak %.2f)\n", char, src.MeanRate(), src.PeakRate())
	fmt.Printf("  required guaranteed rate:     %.4f\n", g)
	fmt.Printf("  sessions admitted:            %d (utilization %.1f%%)\n", n, 100*c.Utilization())
	fmt.Printf("  peak-rate allocation admits:  %d\n", int(*rate/src.PeakRate()))
	fmt.Printf("  mean-rate packing (no QoS):   %d\n", int(*rate/src.MeanRate()))
	return nil
}

func classes() error {
	voice := ebb.Process{Rho: 0.05, Lambda: 1, Alpha: 3}
	video := ebb.Process{Rho: 0.10, Lambda: 1, Alpha: 2}
	data := ebb.Process{Rho: 0.08, Lambda: 1.2, Alpha: 1.5}
	srv := classgps.Server{
		Rate: 1,
		Classes: []classgps.Class{
			{Name: "voice", Phi: 0.20, Members: []ebb.Process{voice, voice, voice, voice}},
			{Name: "video", Phi: 0.225, Members: []ebb.Process{video, video, video}},
			{Name: "data", Phi: 0.12, Members: []ebb.Process{data, data, data}},
		},
	}
	bounds, err := srv.Analyze(0.5, true, gpsmath.XiOptimal)
	if err != nil {
		return err
	}
	fmt.Println("class-based GPS (paper §7): GPS across classes, FCFS within")
	header := []string{"class", "members", "phi", "g", "Pr{D>=20}", "D(1e-4)"}
	var rows [][]string
	for i, cb := range bounds {
		rows = append(rows, []string{
			cb.Class,
			fmt.Sprint(len(srv.Classes[i].Members)),
			fmt.Sprintf("%.3f", srv.Classes[i].Phi),
			fmt.Sprintf("%.3f", cb.Bounds.G),
			fmt.Sprintf("%.2e", cb.Bounds.DelayTail(20)),
			fmt.Sprintf("%.1f", cb.Bounds.DelayQuantile(1e-4)),
		})
	}
	fmt.Print(plot.Table(header, rows))
	fmt.Println("\nthe class bound is a worst-case per-member soft guarantee; members")
	fmt.Println("multiplex FCFS inside the class (see examples/classes for simulation).")
	return nil
}

func ring() error {
	chars, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		return err
	}
	net, err := paper.Ring(6, 3, chars[1])
	if err != nil {
		return err
	}
	fmt.Println("EXT-RING: 6-node ring, every session traverses 3 hops (cyclic topology)")
	classes, _, err := net.CRSTClasses()
	if err != nil {
		return err
	}
	fmt.Printf("CRST classes: %d (RPPS: all sessions in H1)\n", len(classes))
	bounds, err := net.RPPSBounds(network.VariantDiscrete)
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 15 per-session bound (route-length independent):\n")
	fmt.Printf("  g_net = %.3f,  D(1e-3) <= %.1f,  D(1e-6) <= %.1f slots\n",
		bounds[0].GNet, bounds[0].Delay.Invert(1e-3), bounds[0].Delay.Invert(1e-6))
	fmt.Println("\nsimulating 100000 slots...")
	tails, err := paper.RingSim(6, 3, 100000, 9)
	if err != nil {
		return err
	}
	for i, tail := range tails {
		q, err := tail.Quantile(0.999)
		if err != nil {
			return err
		}
		fmt.Printf("  flow-%d: n=%d p99.9 delay %.1f slots\n", i, tail.N(), q)
	}
	return nil
}

func ys() error {
	chars, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		return err
	}
	srv := gpsmath.NewRPPSServer(1, chars, paper.SessionNames)
	an, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{})
	if err != nil {
		return err
	}
	rates, ord := an.Rates, an.Ordering
	rec, err := srv.YaronSidiBounds(ord, rates, 0, gpsmath.XiOne)
	if err != nil {
		return err
	}
	fmt.Println("EXT-YS: decomposition (Theorem 7) vs output-based recursion")
	header := []string{"position", "session", "q(1e-6) decomposition", "q(1e-6) recursion"}
	var rows [][]string
	for pos, i := range ord {
		t7, err := srv.Theorem7(ord, rates, pos, gpsmath.XiOne)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(pos + 1),
			srv.Sessions[i].Name,
			fmt.Sprintf("%.2f", t7.BacklogQuantile(1e-6)),
			fmt.Sprintf("%.2f", rec[i].BacklogQuantile(1e-6)),
		})
	}
	fmt.Print(plot.Table(header, rows))
	fmt.Println("\nthe recursion compounds prefactors along the ordering; the paper's")
	fmt.Println("decomposition keeps each session's bound anchored to the inputs.")
	return nil
}

func export(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", "out", "output directory for CSV files")
	slots := fs.Int("slots", 100000, "simulation length for boundvssim.csv (0 to skip)")
	seed := fs.Uint64("seed", 42, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := paper.WriteAll(*dir, *slots, *seed); err != nil {
		return err
	}
	fmt.Printf("wrote fig3a.csv, fig3b.csv, fig4.csv")
	if *slots > 0 {
		fmt.Printf(", boundvssim.csv")
	}
	fmt.Printf(" to %s\n", *dir)
	return nil
}

func sweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	lo := fs.Float64("min", 0.8, "smallest rho scale (relative to Set 1)")
	hi := fs.Float64("max", 1.2, "largest rho scale")
	n := fs.Int("points", 9, "sweep points")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pts, err := paper.RhoSweep(*lo, *hi, *n)
	if err != nil {
		return err
	}
	fmt.Println("EXT-SWEEP: envelope rate vs decay rate vs usable bound (paper §6.3 trade-off)")
	header := []string{"scale", "rho_1", "alpha_1", "D_1(1e-6)", "alpha_4", "D_4(1e-6)", "sum rho"}
	var rows [][]string
	for _, pt := range pts {
		total := 0.0
		for _, r := range pt.Rhos {
			total += r
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", pt.Scale),
			fmt.Sprintf("%.3f", pt.Rhos[0]),
			fmt.Sprintf("%.3f", pt.Alphas[0]),
			fmt.Sprintf("%.1f", pt.D1e6[0]),
			fmt.Sprintf("%.3f", pt.Alphas[3]),
			fmt.Sprintf("%.1f", pt.D1e6[3]),
			fmt.Sprintf("%.3f", total),
		})
	}
	fmt.Print(plot.Table(header, rows))
	fmt.Println("\nsmaller rho admits more load (sum rho shrinks) but collapses alpha and")
	fmt.Println("inflates the delay budget — the Set 1 vs Set 2 story as a full curve.")
	return nil
}
