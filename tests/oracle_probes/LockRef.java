import com.example.locks.MyLock;
import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class LockRef {
  private MyLock l = null;
  private int x;

  public void a() {
    l.lock();
    x = 1;
    l.unlock();
  }

  public synchronized void b() {
    l = new MyLock();
  }
}
