package xbcore

import (
	"testing"

	"xbc/internal/frontend"
)

func TestXBPKindsDiffer(t *testing.T) {
	s := xbcTestStream(t, 20, 150_000)
	results := map[string]frontend.Metrics{}
	for _, kind := range []XBPKind{XBPGshare, XBPBimodal, XBPTournament} {
		cfg := DefaultConfig(32 * 1024)
		cfg.XBP = kind
		results[kind.String()] = frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	}
	t.Logf("gshare: miss=%d/%d bw=%.3f", results["gshare"].CondMiss, results["gshare"].CondExec, results["gshare"].Bandwidth())
	t.Logf("bimodal: miss=%d/%d bw=%.3f", results["bimodal"].CondMiss, results["bimodal"].CondExec, results["bimodal"].Bandwidth())
	t.Logf("tournament: miss=%d/%d bw=%.3f", results["tournament"].CondMiss, results["tournament"].CondExec, results["tournament"].Bandwidth())
	if results["gshare"].CondMiss == results["bimodal"].CondMiss {
		t.Error("gshare and bimodal produced identical mispredict counts")
	}
	cfg := DefaultConfig(32 * 1024)
	cfg.NextXB = true
	mn := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	t.Logf("nextxb: hits=%v misses=%v miss%%=%.2f", mn.Extra["nxb_hits"], mn.Extra["nxb_misses"], mn.UopMissRate())
	if mn.Extra["nxb_hits"] == 0 {
		t.Error("next-XB predictor never hit")
	}
}
