package main

// indexHTML is the minimal web UI: define sketches, watch training, run
// ad-hoc and template queries with overlays — a text-mode rendition of the
// paper's Figure 2 interface.
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Deep Sketches</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; }
textarea, input, select, button { font: inherit; margin: 0.15rem 0; }
textarea { width: 100%; height: 5rem; }
pre { background: #f4f4f4; padding: 0.8rem; overflow-x: auto; }
section { margin-bottom: 2rem; }
.bar { background: #4a7; height: 0.9rem; display: inline-block; }
.bar.true { background: #333; }
.bar.pg { background: #c66; }
.bar.hy { background: #66c; }
td { padding: 0 0.6rem 0 0; font-size: 0.85rem; white-space: nowrap; }
</style>
</head>
<body>
<h1>Deep Sketches</h1>
<p>Compact learned models of a database that estimate SQL result sizes.
Define a sketch, watch it train, then run ad-hoc COUNT(*) queries and
templates with a <code>?</code> placeholder.</p>

<section>
<h2>Sketches</h2>
<button onclick="refresh()">refresh</button>
<pre id="sketches">loading...</pre>
<h3>Create</h3>
dataset <select id="c_ds"><option>imdb</option><option>tpch</option></select>
queries <input id="c_q" value="3000" size="6">
epochs <input id="c_e" value="20" size="4">
samples <input id="c_s" value="500" size="5">
<button onclick="createSketch()">create sketch</button>
</section>

<section>
<h2>Ad-hoc query</h2>
sketch id <input id="q_id" value="1" size="3">
<textarea id="q_sql">SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>2010</textarea>
<button onclick="estimate()">EXECUTE</button>
<pre id="q_out"></pre>
</section>

<section>
<h2>Template query</h2>
sketch id <input id="t_id" value="1" size="3">
group <select id="t_group"><option>distinct</option><option>buckets</option></select>
buckets <input id="t_buckets" value="20" size="4">
<textarea id="t_sql">SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k WHERE mk.movie_id=t.id AND mk.keyword_id=k.id AND k.keyword='artificial-intelligence' AND t.production_year=?</textarea>
<button onclick="template()">EXECUTE</button>
<div id="t_out"></div>
</section>

<script>
async function jsonFetch(url, opts) {
  const r = await fetch(url, opts);
  const body = await r.json();
  if (!r.ok) throw new Error(body.error || r.statusText);
  return body;
}
async function refresh() {
  const s = await jsonFetch('/api/sketches');
  const lines = await Promise.all(s.map(async e => {
    const d = await jsonFetch('/api/sketches/' + e.id);
    const p = d.progress;
    let st = e.status;
    if (st === 'building') st += ' (' + p.stage + ' ' + (p.epoch ? 'epoch ' + p.epoch : p.done + '/' + p.total) + ')';
    if (st === 'ready' && p.val_mean_q) st += '  val mean-q ' + p.val_mean_q.toFixed(1);
    return '#' + e.id + '  ' + e.name + '  [' + e.dataset + ']  ' + st;
  }));
  document.getElementById('sketches').textContent = lines.join('\n') || '(none — create one below)';
}
async function createSketch() {
  await jsonFetch('/api/sketches', {method: 'POST', body: JSON.stringify({
    dataset: document.getElementById('c_ds').value,
    train_queries: +document.getElementById('c_q').value,
    epochs: +document.getElementById('c_e').value,
    sample_size: +document.getElementById('c_s').value,
  })});
  refresh();
}
async function estimate() {
  const out = document.getElementById('q_out');
  out.textContent = '...';
  try {
    const r = await jsonFetch('/api/estimate', {method: 'POST', body: JSON.stringify({
      sketch_id: +document.getElementById('q_id').value,
      sql: document.getElementById('q_sql').value,
      truth: true,
    })});
    out.textContent =
      'Deep Sketch  ' + r.deep_sketch.toFixed(1) + '   (q-error ' + r.q_errors.deep_sketch.toFixed(2) + ')\n' +
      'HyPer        ' + r.hyper.toFixed(1) + '   (q-error ' + r.q_errors.hyper.toFixed(2) + ')\n' +
      'PostgreSQL   ' + r.postgresql.toFixed(1) + '   (q-error ' + r.q_errors.postgresql.toFixed(2) + ')\n' +
      'True         ' + r.true;
  } catch (e) { out.textContent = 'error: ' + e.message; }
}
async function template() {
  const out = document.getElementById('t_out');
  out.textContent = '...';
  try {
    const r = await jsonFetch('/api/template', {method: 'POST', body: JSON.stringify({
      sketch_id: +document.getElementById('t_id').value,
      sql: document.getElementById('t_sql').value,
      group: document.getElementById('t_group').value,
      buckets: +document.getElementById('t_buckets').value,
      truth: true,
    })});
    const max = Math.max(1, ...r.points.map(p => Math.max(p.deep_sketch, p.true || 0)));
    out.innerHTML = '<table>' + r.points.map(p =>
      '<tr><td>' + p.label + '</td>' +
      '<td><span class="bar" style="width:' + (260 * p.deep_sketch / max) + 'px"></span> ' + p.deep_sketch.toFixed(1) + '</td>' +
      '<td><span class="bar true" style="width:' + (260 * (p.true || 0) / max) + 'px"></span> ' + (p.true ?? '') + '</td></tr>'
    ).join('') + '</table><p>green = Deep Sketch estimate, black = true cardinality</p>';
  } catch (e) { out.textContent = 'error: ' + e.message; }
}
refresh();
</script>
</body>
</html>
`
