import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class Mon {
  private Object m = null;
  private int x;

  public void a() {
    synchronized (m) {
      x = 1;
    }
  }

  public synchronized void b() {
    m = new Object();
  }
}
